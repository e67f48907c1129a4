"""Tests for compositions: counts, identities, oracle enumeration."""

import ast
import itertools
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cuspcensus import compositions
from cuspcensus.census import excursion_census
from cuspcensus.compositions import (
    _COMB_J,
    census_column,
    census_row,
    census_rows,
    count_all,
    count_bounded,
    count_exact_excursions,
    enumerate_compositions,
    two_excursion_column,
    two_excursion_sum,
)


def brute_compositions(t):
    """Independent generator: compositions of t by first-part recursion."""
    if t == 0:
        yield ()
        return
    for first in range(1, t + 1):
        for rest in brute_compositions(t - first):
            yield (first,) + rest


# -- count_all ----------------------------------------------------------------


def test_count_all_frozen():
    assert count_all(0) == 1
    assert count_all(1) == 1
    assert count_all(4) == 8
    assert count_all(10) == 512
    with pytest.raises(ValueError):
        count_all(-1)


def test_count_all_matches_enumeration():
    for t in range(13):
        assert count_all(t) == sum(1 for _ in brute_compositions(t))


# -- count_bounded ------------------------------------------------------------


def test_count_bounded_frozen():
    assert count_bounded(4, 2) == 5  # 1111 112 121 211 22
    assert count_bounded(0, 3) == 1
    assert count_bounded(3, 3) == 4
    with pytest.raises(ValueError):
        count_bounded(3, 0)
    with pytest.raises(ValueError):
        count_bounded(-1, 2)


def test_count_bounded_d2_is_fibonacci():
    assert [count_bounded(t, 2) for t in range(10)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_count_bounded_matches_enumeration():
    for t in range(13):
        for D in range(1, 6):
            expected = sum(1 for c in brute_compositions(t) if all(p <= D for p in c))
            assert count_bounded(t, D) == expected


def test_count_bounded_saturates_and_is_monotone():
    for t in range(1, 16):
        for D in range(1, t + 3):
            assert count_bounded(t, D) <= count_bounded(t, D + 1) <= count_all(t)
        assert count_bounded(t, t) == count_all(t)
        assert count_bounded(t, t + 5) == count_all(t)


def test_count_bounded_recursion_holds():
    for D in range(2, 9):
        for t in range(D + 1, 40):
            assert count_bounded(t, D) == sum(
                count_bounded(t - i, D) for i in range(1, D + 1)
            )


# -- count_exact_excursions -----------------------------------------------------


def test_count_exact_excursions_frozen():
    assert count_exact_excursions(7, 2, 1) == 35
    assert count_exact_excursions(5, 1, 2) == 8
    assert count_exact_excursions(4, 0, 2) == count_bounded(4, 2)
    with pytest.raises(ValueError):
        count_exact_excursions(5, -1, 2)
    with pytest.raises(ValueError):
        count_exact_excursions(5, 0, 0)


def test_count_exact_excursions_zero_when_impossible():
    assert count_exact_excursions(5, 2, 2) == 0  # needs 2*(2+1) > 5
    assert count_exact_excursions(10, 4, 2) == 0
    assert count_exact_excursions(0, 1, 3) == 0
    assert count_exact_excursions(0, 0, 3) == 1


def test_count_exact_excursions_matches_enumeration():
    for t in range(1, 13):
        for D in range(1, 5):
            for n in range(t + 1):
                expected = sum(
                    1
                    for c in brute_compositions(t)
                    if sum(1 for p in c if p > D) == n
                )
                assert count_exact_excursions(t, n, D) == expected


def test_partition_identity():
    for t in range(1, 21):
        for D in range(1, 6):
            total = sum(
                count_exact_excursions(t, n, D) for n in range(t // (D + 1) + 1)
            )
            assert total == count_all(t)


def test_depth_one_specializes_to_binomial():
    for t in range(1, 201):
        for n in range(t // 2 + 1):
            assert count_exact_excursions(t, n, 1) == math.comb(t, 2 * n)


# -- product_at ------------------------------------------------------------------


def product_at(t, D, k, r):
    """The positional reference of the double sum: compositions of t whose
    one part bigger than D equals r and starts at position k of the
    underlying tuple.  The parts before it form a bounded composition of
    k-1 and those after it one of t-k-r+1."""
    return count_bounded(k - 1, D) * count_bounded(t - k - r + 1, D)


def test_product_at_frozen():
    assert product_at(5, 2, 1, 3) == 2  # (3,2) (3,1,1)
    assert product_at(5, 2, 2, 3) == 1  # (1,3,1)
    assert product_at(5, 2, 3, 3) == 2  # (2,3) (1,1,3)


def test_product_at_matches_positional_enumeration():
    # position of a part = 1 + sum of the preceding parts
    for t in range(3, 13):
        for D in (1, 2, 3):
            for r in range(D + 1, t + 1):
                for k in range(1, t - r + 2):
                    expected = 0
                    for c in brute_compositions(t):
                        big = [
                            (1 + sum(c[:i]), p)
                            for i, p in enumerate(c)
                            if p > D
                        ]
                        if big == [(k, r)]:
                            expected += 1
                    assert product_at(t, D, k, r) == expected


# -- two_excursion_sum ------------------------------------------------------------


def test_two_excursion_sum_frozen():
    assert two_excursion_sum(5, 2) == 8
    assert two_excursion_sum(3, 2) == 1
    assert two_excursion_sum(2, 2) == 0


def test_two_excursion_sum_equals_literal_double_sum():
    for t in range(1, 41):
        for D in (2, 3):
            literal = sum(
                product_at(t, D, k, r)
                for r in range(D + 1, t + 1)
                for k in range(1, t - r + 2)
            )
            assert two_excursion_sum(t, D) == literal


def test_two_excursion_sum_counts_single_excursions():
    for t in range(1, 121):
        for D in range(2, 6):
            assert two_excursion_sum(t, D) == count_exact_excursions(t, 1, D)


@pytest.mark.parametrize("t_lo, t_hi", [(1, 90), (2, 3), (5, 90), (40, 41), (7, 7)])
@pytest.mark.parametrize("D", [1, 2, 3, 8])
def test_two_excursion_column_equals_the_one_t_sums(t_lo, t_hi, D):
    # the column reuses one table of bounded counts; below t = D + 1 and
    # from a t_lo above 1 it must still give each t its own sum
    expected = []
    for t in range(t_lo, t_hi + 1):
        s = t - D - 1
        a = [count_bounded(i, D) for i in range(max(s + 1, 0))]
        expected.append((t, sum(a[i] * sum(a[: s - i + 1]) for i in range(s + 1))))
    assert list(two_excursion_column(t_lo, t_hi, D)) == expected
    assert [(t, two_excursion_sum(t, D)) for t in range(t_lo, t_hi + 1)] == expected


def test_two_excursion_column_edge_ranges_and_arguments():
    assert list(two_excursion_column(9, 8, 2)) == []
    assert list(two_excursion_column(1, 3, 3)) == [(1, 0), (2, 0), (3, 0)]
    for args in ((0, 5, 2), (1, 5, 0)):
        with pytest.raises(ValueError):
            two_excursion_column(*args)
        with pytest.raises(ValueError):
            two_excursion_sum(args[0], args[2])


# -- enumeration -------------------------------------------------------------------


def test_enumeration_order_frozen():
    assert [c.parts for c in enumerate_compositions(3)] == [
        (1, 1, 1),
        (2, 1),
        (1, 2),
        (3,),
    ]
    assert [c.parts for c in enumerate_compositions(1)] == [(1,)]
    assert [c.parts for c in enumerate_compositions(0)] == [()]


def test_enumeration_is_exhaustive_and_unique():
    for t in range(1, 13):
        seen = [c.parts for c in enumerate_compositions(t)]
        assert len(seen) == len(set(seen)) == count_all(t)
        assert all(sum(p) == t for p in seen)
        assert set(seen) == set(brute_compositions(t))


def test_enumeration_filter_matches_counts():
    for t in range(1, 13):
        for D in (1, 2, 4):
            for n in range(t // (D + 1) + 1):
                got = sum(1 for _ in enumerate_compositions(t, n, D))
                assert got == count_exact_excursions(t, n, D)


def composition_from_glue(t, glue):
    """The order reference: bit j of glue merges positions j+1 and j+2 of
    the underlying tuple of t ones."""
    parts = []
    run = 1
    for j in range(t - 1):
        if glue >> j & 1:
            run += 1
        else:
            parts.append(run)
            run = 1
    parts.append(run)
    return tuple(parts)


def mask_order(t, n=None, D=None):
    """Every composition of t in ascending glue mask, then filtered on
    exactly n parts bigger than D; the empty one for t = 0."""
    listed = [composition_from_glue(t, glue) for glue in range(1 << (t - 1))] if t else [()]
    if n is None:
        return listed
    return [c for c in listed if sum(p > D for p in c) == n]


def test_mask_order_frozen():
    assert mask_order(3) == [(1, 1, 1), (2, 1), (1, 2), (3,)]
    assert mask_order(4, 1, 2) == [(3, 1), (1, 3), (4,)]
    assert mask_order(0, 1, 1) == []


@pytest.mark.parametrize("t", range(14))
def test_walk_lists_the_mask_order(t):
    # unfiltered, and every n up to two past the row's end
    assert [c.parts for c in enumerate_compositions(t)] == mask_order(t)
    for D in range(1, 5):
        for n in range(t // (D + 1) + 3):
            got = [c.parts for c in enumerate_compositions(t, n, D)]
            assert got == mask_order(t, n, D), (t, n, D)


@given(st.integers(0, 16), st.integers(0, 9), st.integers(1, 17))
@settings(max_examples=80, deadline=None)
def test_filtered_walk_is_the_filtered_listing(t, n, D):
    assert list(enumerate_compositions(t, n, D)) == [
        c for c in enumerate_compositions(t) if sum(p > D for p in c.parts) == n
    ]


def test_walk_is_not_bounded_by_the_recursion_limit_or_the_mask_count():
    # 2^1199 masks and 1200 parts: one composition, of ones; and none
    # with 601 parts bigger than 1
    assert [c.parts for c in enumerate_compositions(1200, 0, 1)] == [(1,) * 1200]
    assert list(enumerate_compositions(1200, 601, 1)) == []


#: the names of the counting kernel in compositions
KERNEL_NAMES = {
    "census_row", "census_rows", "_rows",
    "census_column", "_column",
    "count_exact_excursions", "count_bounded", "count_all",
}


def test_enumeration_reads_no_kernel_count():
    # test_enumeration_filter_matches_counts checks the walk against the
    # kernel, so the walk may not take a count from it
    tree = ast.parse(Path(compositions.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert KERNEL_NAMES <= functions.keys()
    for name in ("enumerate_compositions", "_compositions"):
        used = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(functions[name])
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        assert "Composition" in used or "_compositions" in used
        assert not used & KERNEL_NAMES, (name, used & KERNEL_NAMES)


def test_enumeration_filter_validation():
    # checked at the call: none of these is iterated
    for kwargs in (dict(t=4, n=1), dict(t=4, D=2), dict(t=3, n=1)):
        with pytest.raises(ValueError, match="^filter needs both n and D or neither$"):
            enumerate_compositions(**kwargs)
    with pytest.raises(ValueError, match="^D must be >= 1, got 0$"):
        enumerate_compositions(4, 1, 0)


@given(st.integers(1, 60), st.integers(1, 8))
@settings(max_examples=60)
def test_bounded_recursion_property(t, D):
    assert count_bounded(t, D) == sum(
        count_bounded(t - i, D) for i in range(1, D + 1) if t - i >= 0
    )


def test_counts_deterministic_under_threads():
    # counts computed on eight threads at once match the recursion
    # count(t) = count(t-1) + ... + count(t-D), read on one thread
    grid = [(t, D) for D in range(2, 10) for t in (400, 500, 600)]
    with ThreadPoolExecutor(max_workers=8) as ex:
        results = list(ex.map(lambda td: count_bounded(*td), grid))
    for (t, D), v in zip(grid, results):
        assert v == sum(count_bounded(t - i, D) for i in range(1, D + 1))


# -- generating-function kernel ---------------------------------------------------


@given(st.integers(1, 14), st.integers(0, 8), st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_kernel_matches_enumeration(t, n, D):
    expected = sum(
        1 for c in enumerate_compositions(t) if sum(1 for p in c.parts if p > D) == n
    )
    assert count_exact_excursions(t, n, D) == expected
    rows = excursion_census(t, D)
    assert [r.n for r in rows] == list(range(t // (D + 1) + 1))
    cell = rows[n].count if n < len(rows) else 0
    assert cell == expected


def kernel_row(t, D):
    ((_, row),) = census_rows(t, t, D)
    return row


@given(st.integers(1, 200), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_kernel_single_excursion_row_is_double_sum(t, D):
    row = kernel_row(t, D)
    assert (row[1] if len(row) > 1 else 0) == two_excursion_sum(t, D)


@given(st.integers(1, 200), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_point_single_excursion_row_is_double_sum(t, D):
    row = census_row(t, D)
    assert (row[1] if len(row) > 1 else 0) == two_excursion_sum(t, D)


@given(st.integers(0, 300))
@settings(max_examples=60, deadline=None)
def test_kernel_depth_one_rows_are_binomial(t):
    assert kernel_row(t, 1) == [math.comb(t, 2 * n) for n in range(t // 2 + 1)]


@given(st.integers(0, 300))
@settings(max_examples=60, deadline=None)
def test_point_depth_one_rows_are_binomial(t):
    assert census_row(t, 1) == [math.comb(t, 2 * n) for n in range(t // 2 + 1)]


@given(st.integers(0, 400), st.integers(1, 12))
@example(0, 1)
@example(1, 1)
@example(2, 1)
@example(1, 5)
@example(5, 5)
@example(6, 5)
@example(12, 12)
@example(13, 12)
@settings(max_examples=80, deadline=None)
def test_point_row_equals_kernel_row(t, D):
    assert census_row(t, D) == kernel_row(t, D)


def test_point_row_beyond_the_int_digit_limit():
    # the middle counts of t = 14400, D = 200 have more than 4300 digits,
    # so str() refuses them; the row is checked as integers
    row = census_row(14400, 200)
    assert max(row).bit_length() > 4300 * math.log2(10)
    assert sum(row) == 2**14399
    assert row == kernel_row(14400, 200)


@given(
    st.lists(st.integers(0, 80), min_size=1, max_size=12),
    st.integers(1, 6),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_kernel_rows_independent_of_request_order(ts, D, rng):
    ascending = {t: census_row(t, D) for t in sorted(ts)}
    descending = {t: census_row(t, D) for t in sorted(ts, reverse=True)}
    shuffled = list(ts)
    rng.shuffle(shuffled)
    assert {t: census_row(t, D) for t in shuffled} == ascending == descending
    for t, row in ascending.items():
        assert row == [count_exact_excursions(t, n, D) for n in range(len(row))]


@given(st.integers(0, 120), st.integers(-1, 40), st.integers(1, 6))
@example(0, 0, 2)
@example(0, 9, 1)
@example(7, 0, 3)
@settings(max_examples=60, deadline=None)
def test_census_rows_match_single_rows(t_lo, span, D):
    t_hi = t_lo + span
    assert list(census_rows(t_lo, t_hi, D)) == [
        (t, census_row(t, D)) for t in range(t_lo, t_hi + 1)
    ]


def test_single_rows_match_the_kernel_at_every_small_t():
    # every t up to where census_row's rows have 10 coefficients past
    # _COMB_J, so that both its binomial routes (the ratio steps above
    # _COMB_J, math.comb from there down) and each t that D+1 divides (the
    # coefficient b_J = 1) meet the kernel's walk
    for D in range(1, 5):
        t_max = (_COMB_J + 10) * (D + 1)
        assert [census_row(t, D) for t in range(t_max + 1)] == [
            row for _, row in census_rows(0, t_max, D)
        ]


def test_census_rows_check_arguments_at_the_call():
    with pytest.raises(ValueError):
        census_rows(-1, 5, 2)
    with pytest.raises(ValueError):
        census_rows(1, 5, 0)


def packed_cell(t, n, D):
    row = census_row(t, D)
    return row[n] if n < len(row) else 0


@given(st.integers(0, 300), st.integers(0, 300), st.integers(0, 5), st.integers(1, 8))
@example(0, 40, 2, 3)  # from t = 0, through the zeros below t = n(D+1)
@example(0, 17, 5, 2)  # n beyond t_hi // (D+1): every cell is 0
@example(30, 30, 1, 4)  # one t, as count_exact_excursions reads it
@settings(max_examples=80, deadline=None)
def test_census_column_equals_the_packed_rows(t_a, t_b, n, D):
    t_lo, t_hi = sorted((t_a, t_b))
    assert list(census_column(t_lo, t_hi, n, D)) == [
        (t, packed_cell(t, n, D)) for t in range(t_lo, t_hi + 1)
    ]


def test_census_column_edge_ranges():
    assert list(census_column(0, 4, 0, 2)) == [(0, 1), (1, 1), (2, 2), (3, 3), (4, 5)]
    assert list(census_column(0, 11, 3, 3)) == [(t, 0) for t in range(12)]
    assert list(census_column(9, 8, 1, 2)) == []
    assert list(census_column(300, 0, 0, 1)) == []


def test_census_column_checks_arguments_at_the_call():
    for args in ((-1, 5, 1, 2), (1, 5, 1, 0), (1, 5, -1, 2)):
        with pytest.raises(ValueError):
            census_column(*args)


def test_census_cursor_shared_between_threads():
    # rows of D = 3 for shuffled t, asked for on four threads that switch
    # every microsecond: any state shared between calls would hand some
    # thread the row of another t
    ts = list(range(120)) * 2
    random.Random(7).shuffle(ts)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as ex:
            rows = list(ex.map(lambda t: census_row(t, 3), ts, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for t, row in zip(ts, rows):
        assert row == [count_exact_excursions(t, n, 3) for n in range(t // 4 + 1)]
