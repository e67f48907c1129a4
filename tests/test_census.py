"""Tests for census: DP vs oracle rows, verification reports, table rows."""

import ast
import io
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from cuspcensus import (
    AlphaEnclosure,
    bounds_two_excursions,
    bounds_two_excursions_range,
    census,
    closed_form_count,
    coefficient_d,
    count_all,
    count_bounded,
    count_exact_excursions,
    enumerate_compositions,
    excursion_parts,
    excursion_term_report,
    limit_constant,
    solve_alpha,
    two_excursion_column,
    two_excursion_sum,
)
from cuspcensus.census import (
    SUITES,
    CapExceeded,
    CensusRow,
    Check,
    VerificationReport,
    _below,
    _ratio_to_limit,
    _within,
    conjugacy_class_sizes,
    excursion_census,
    oracle_census,
    suite_bijection,
    suite_closed_form,
    suite_double_sum,
    suite_lemma33,
    suite_matrices,
    suite_partition,
    suite_thm32,
    suite_thm34,
    table1,
    verify_theorem_2n_depth1,
    verify_theorem_two_excursions,
)
from cuspcensus.cli import main
from cuspcensus.words import Composition, EpsilonSeq, GroupWord, projectivize, run_sequence


# -- check plumbing ------------------------------------------------------------


def test_within_exact_on_big_integers():
    big = 10**40
    assert _within("eq", (), big, big, 0).passed
    assert not _within("eq", (), big + 1, big, 0).passed


def test_within_relative():
    assert _within("rel", (), 1.01, 1.0, Fraction(1, 50), relative=True).passed
    assert not _within("rel", (), 1.03, 1.0, Fraction(1, 50), relative=True).passed


def test_below_is_strict():
    assert _below("lt", (), 1, 2).passed
    assert not _below("lt", (), 2, 2).passed


def test_report_passed_property():
    good = _within("a", (), 0, 0, 0)
    bad = _within("b", (), 1, 0, 0)
    assert VerificationReport("r", (good,)).passed
    assert not VerificationReport("r", (good, bad)).passed


# -- census rows ---------------------------------------------------------------


def test_excursion_census_frozen_rows():
    rows = excursion_census(7, 1)
    assert [(r.n, r.count) for r in rows] == [(0, 1), (1, 21), (2, 35), (3, 7)]
    assert all(r.source == "dp" for r in rows)
    rows = excursion_census(4, 2)
    assert [(r.n, r.count) for r in rows] == [(0, 5), (1, 3)]
    rows = excursion_census(2, 3)
    assert [(r.n, r.count) for r in rows] == [(0, 2)]


def test_excursion_census_rows_partition():
    for t in range(1, 16):
        for D in range(1, 5):
            assert sum(r.count for r in excursion_census(t, D)) == count_all(t)


def test_excursion_census_validation():
    with pytest.raises(ValueError):
        excursion_census(0, 2)
    with pytest.raises(ValueError):
        excursion_census(3, 0)


def test_oracle_census_frozen():
    rows = oracle_census(3, 1)
    assert [(r.n, r.count) for r in rows] == [(0, 1), (1, 3)]
    assert all(r.source == "oracle" for r in rows)


def test_oracle_census_runs_no_word_route(monkeypatch):
    # the mask oracle is a route of its own: it must never group normal
    # forms by cyclic conjugacy
    def no_words(word):
        raise AssertionError("the oracle reached the word route")

    monkeypatch.setattr(census, "canonical_cyclic_form", no_words)
    assert [(r.t, r.D, r.n, r.count) for r in oracle_census(12, 2)] == [
        (r.t, r.D, r.n, r.count) for r in excursion_census(12, 2)
    ]


def test_oracle_census_runs_no_dp_route(monkeypatch):
    # nor does it read the counting kernel: count_all, the size of the
    # two-to-one check, is the one name of compositions it may call
    from cuspcensus import compositions

    expected = [(r.t, r.D, r.n, r.count) for r in excursion_census(12, 2)]

    def no_dp(*args, **kwargs):
        raise AssertionError("the oracle reached the DP route")

    names = [
        name for name, value in vars(census).items()
        if getattr(value, "__module__", None) == compositions.__name__
        and name != "count_all"
    ]
    assert "census_row" in names and "census_rows" in names
    for name in names:
        monkeypatch.setattr(census, name, no_dp)
    census._oracle_tally.cache_clear()
    try:
        assert [(r.t, r.D, r.n, r.count) for r in oracle_census(12, 2)] == expected
    finally:
        census._oracle_tally.cache_clear()


def test_oracle_tally_is_two_to_one():
    for t in range(1, 13):
        assert census._oracle_tally(t)[0] == Counter({2: 2 ** (t - 1)})


def test_oracle_census_rejects_a_collapse_that_is_not_two_to_one(monkeypatch):
    # the class sizes are compared with count_all; one class too many
    # must stop the census before any row is built
    real = census.count_all
    monkeypatch.setattr(census, "count_all", lambda t: real(t) + 1)
    with pytest.raises(RuntimeError, match="projectivization is not two-to-one at t=5"):
        oracle_census(5, 1)


def test_oracle_counts_its_classes_in_a_byte_table():
    # a cold oracle at t = 16 holds one byte per mask: the Counter of 2^15
    # class keys it replaced peaked at about 2.5 MB traced
    census._oracle_tally.cache_clear()
    tracemalloc.start()
    try:
        rows = oracle_census(16, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        census._oracle_tally.cache_clear()
    assert [r.count for r in rows] == [r.count for r in excursion_census(16, 1)]
    assert peak < 500_000, peak


def test_bijection_suite_reports_an_unpaired_word_route(monkeypatch):
    # a word route that merges every normal form into one class fails the
    # suite through its checks: exit 1, FAIL lines, no traceback
    monkeypatch.setattr(
        census, "canonical_cyclic_form", lambda word: GroupWord.from_string("ab")
    )
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", "--suite", "bijection"])
    assert code == 1
    assert " FAIL " in out.getvalue()
    assert "Traceback" not in out.getvalue() + err.getvalue()


@pytest.mark.parametrize("route", ["census_row", "census_rows"])
def test_partition_suite_fails_on_a_wrong_cell_in_either_route(monkeypatch, route):
    # one count moved between two cells of the row at t = 6, D = 2 keeps
    # the row sum, so only the comparison with the oracle can see it
    def skew(t, row):
        return [row[0] - 1, row[1] + 1, *row[2:]] if (t, len(row)) == (6, 3) else row

    if route == "census_row":
        point = census.census_row
        monkeypatch.setattr(census, "census_row", lambda t, D: skew(t, point(t, D)))
    else:
        kernel = census.census_rows
        monkeypatch.setattr(
            census, "census_rows",
            lambda lo, hi, D: ((t, skew(t, row)) for t, row in kernel(lo, hi, D)),
        )
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["verify", "--suite", "partition", "--oracle-max-t", "8",
                     "--format", "csv"])
    assert code == 1
    failed = [line for line in out.getvalue().splitlines() if ",FAIL," in line]
    assert failed == ["partition,dp_vs_oracle_cells,6:2,FAIL,2,0,0,within"]


def thm32_sweep(monkeypatch, fault):
    """The exact-sweep check of suite_thm32 with each kernel row passed
    through fault(t, row)."""
    kernel = census.census_rows
    monkeypatch.setattr(
        census, "census_rows",
        lambda lo, hi, D: ((t, fault(t, row)) for t, row in kernel(lo, hi, D)),
    )
    report = suite_thm32(exact_t_max=40, t_list=(100, 200), tolerance=Fraction(1))
    (check,) = [c for c in report.checks if c.name == "depth1_exact_sweep_mismatches"]
    return check


def test_thm32_sweep_fails_on_one_wrong_cell(monkeypatch):
    check = thm32_sweep(monkeypatch, lambda t, row: row[:2] + [row[2] + 1] + row[3:]
                        if t == 17 else row)
    assert (check.measured, check.passed) == (1, False)


def test_thm32_sweep_fails_on_a_short_row(monkeypatch):
    check = thm32_sweep(monkeypatch, lambda t, row: row[:-1] if t == 30 else row)
    assert (check.measured, check.passed) == (1, False)


@pytest.mark.parametrize("suite, kwargs, name", [
    (suite_double_sum, dict(t_max=60, d_max=3, bounds_t_max=40, bounds_d_max=3),
     "double_sum_mismatches"),
    (suite_closed_form, dict(t_max=60, d_max=4), "closed_form_mismatches"),
])
def test_column_suites_fail_on_one_wrong_count(monkeypatch, suite, kwargs, name):
    column = census.census_column

    def off_by_one(t_lo, t_hi, n, D):
        return ((t, count + (t == 33)) for t, count in column(t_lo, t_hi, n, D))

    monkeypatch.setattr(census, "census_column", off_by_one)
    report = suite(**kwargs)
    failed = [c for c in report.checks if not c.passed]
    assert failed and {c.name for c in failed} >= {name}
    assert all(c.measured == 1 for c in failed if c.name == name)


@pytest.mark.parametrize("fault", [
    lambda cells: cells[:-1],  # the last t is missing
    lambda cells: cells[:20] + cells[21:],  # one t in the middle is missing
    lambda cells: [(t, total + (t == 33)) for t, total in cells],  # one wrong sum
    lambda cells: cells + [(61, 0)],  # one t too many
])
def test_double_sum_mismatches_count_a_faulty_double_sum_column(monkeypatch, fault):
    # the positional side is read one column per D too, so a cell it drops
    # or changes must count as a mismatch
    column = census.two_excursion_column
    monkeypatch.setattr(
        census, "two_excursion_column",
        lambda t_lo, t_hi, D: iter(fault(list(column(t_lo, t_hi, D)))),
    )
    report = suite_double_sum(t_max=60, d_max=3, bounds_t_max=20, bounds_d_max=2)
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["double_sum_mismatches"] * 2
    assert all(c.measured >= 1 for c in failed)


@pytest.mark.parametrize("fault, violations", [
    (lambda cells: cells[:-1], 1),  # the column ends a t early
    (lambda cells: [(t + 1, count) for t, count in cells], 20),  # off by one t
])
def test_double_sum_sandwich_counts_a_misaligned_column(monkeypatch, fault, violations):
    # the sandwich is wider than one count, so it is the alignment of the
    # column with the bounds that must not go unseen
    column = census.census_column
    monkeypatch.setattr(
        census, "census_column",
        lambda t_lo, t_hi, n, D: iter(fault(list(column(t_lo, t_hi, n, D)))),
    )
    report = suite_double_sum(t_max=20, d_max=2, bounds_t_max=20, bounds_d_max=2)
    (check,) = [c for c in report.checks if c.name == "sandwich_violations"]
    assert (check.measured, check.passed) == (violations, False)


def census_function_names(name):
    """The names imported from compositions into census, and the names
    and attribute chains that census's function name uses."""
    tree = ast.parse((SRC / "cuspcensus" / "census.py").read_text(encoding="utf-8"))
    kernel_names = {"compositions"}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "compositions":
            kernel_names.update(alias.asname or alias.name for alias in node.names)
    (func,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == name]
    used = {node.id for node in ast.walk(func) if isinstance(node, ast.Name)}
    attributes = {
        f"{node.value.id}.{node.attr}" for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }
    return kernel_names, used, attributes


def test_binomial_reference_reaches_no_kernel_name():
    # suite_thm32 checks the kernel against _binomial_row, so the row may
    # not be built from compositions
    kernel_names, used, _ = census_function_names("_binomial_row")
    assert "census_rows" in kernel_names and "row" in used
    assert not used & kernel_names, used & kernel_names
    assert census._binomial_row(6) == [1, 6, 15, 20, 15, 6, 1]
    assert census._binomial_row(0) == [1]


def test_depth1_theorem_takes_its_cells_from_math_comb():
    # at depth 1 a recurrence row would be the binomial ratio itself, so
    # the expected cells come from math.comb, and the kernel gives only
    # the counts that are checked against them
    kernel_names, used, attributes = census_function_names("verify_theorem_2n_depth1")
    assert "math.comb" in attributes
    assert used & kernel_names == {"count_exact_excursions"}


def test_thm32_exact_sweep_reads_kernel_rows_only(monkeypatch):
    # the sweep compares census_rows with _binomial_row; a point row is not
    # the route it checks, so the suite passes without one
    def no_point_row(*args, **kwargs):
        raise AssertionError("the depth-1 sweep read a point row")

    monkeypatch.setattr(census, "census_row", no_point_row)
    assert suite_thm32(exact_t_max=40, t_list=(100, 200), tolerance=Fraction(1)).passed


def test_census_rounds_without_a_decimal_context():
    # table1's approximations are rounded by spectral, on its intervals:
    # census takes only Decimal from decimal, to hold their digits
    tree = ast.parse((SRC / "cuspcensus" / "census.py").read_text(encoding="utf-8"))
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if "decimal" in (getattr(node, "module", None), alias.name)
    }
    assert imported == {("decimal", "Decimal")}
    called = {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert not called & {"Context", "localcontext"}


def test_binomial_row_equals_math_comb():
    for t in range(65):
        assert census._binomial_row(t) == [math.comb(t, k) for k in range(t + 1)]


def test_word_suites_visit_every_sign_tuple_once(monkeypatch):
    # the bijection and matrices suites each build the normal form of every
    # one of the 2^t sign tuples, and of none twice
    seen = []
    build = census.reciprocal_word
    monkeypatch.setattr(census, "reciprocal_word", lambda eps: seen.append(eps.signs) or build(eps))

    def every(t):
        return sorted(itertools.product((1, -1), repeat=t))

    for t in range(1, 9):
        seen.clear()
        conjugacy_class_sizes(t)
        assert sorted(seen) == every(t)
    seen.clear()
    assert suite_matrices(6).passed
    assert sorted(seen) == sorted(s for t in range(1, 7) for s in every(t))


def test_matrices_suite_evaluates_each_word_once(monkeypatch):
    # one evaluation per full word and one per half word, plus ab
    from cuspcensus import matrices

    calls = []
    evaluate = matrices.evaluate
    monkeypatch.setattr(matrices, "evaluate", lambda w: calls.append(w) or evaluate(w))
    assert suite_matrices(6).passed
    assert len(calls) == 2 * sum(1 << t for t in range(1, 7)) + 1


def test_oracle_matches_dp():
    for t in range(1, 11):
        for D in range(1, 4):
            dp = [(r.n, r.count) for r in excursion_census(t, D)]
            oracle = [(r.n, r.count) for r in oracle_census(t, D)]
            assert dp == oracle


def test_oracle_census_cap():
    with pytest.raises(CapExceeded):
        oracle_census(19, 2)
    with pytest.raises(CapExceeded):
        oracle_census(5, 1, cap=4)
    with pytest.raises(ValueError):
        oracle_census(0, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.integers(1, 8))
def test_oracle_matches_dp_property(t, D):
    assert [(r.t, r.D, r.n, r.count) for r in oracle_census(t, D)] == [
        (r.t, r.D, r.n, r.count) for r in excursion_census(t, D)
    ]


def test_oracle_matches_word_route_tally():
    # the oracle reads run lengths off bit masks; tally the same classes
    # through the words objects and require the same histogram
    for t in range(1, 13):
        runs = Counter(
            run_sequence(projectivize(EpsilonSeq(signs)).canonical).parts
            for signs in itertools.product((1, -1), repeat=t)
        )
        for D in range(1, 7):
            hist = Counter()
            for parts, tuples in runs.items():
                hist[sum(1 for p in parts if p > D)] += tuples
            # each class {e, -e} holds two sign tuples
            assert [(r.n, 2 * r.count) for r in oracle_census(t, D)] == [
                (n, hist[n]) for n in range(t // (D + 1) + 1)
            ], (t, D)


def test_conjugacy_class_sizes():
    sizes = conjugacy_class_sizes(3)
    assert len(sizes) == 4
    assert set(sizes.values()) == {2}
    with pytest.raises(CapExceeded):
        conjugacy_class_sizes(15)
    with pytest.raises(CapExceeded):
        suite_bijection(15)


def test_conjugacy_class_sizes_returns_a_copy():
    conjugacy_class_sizes(3).clear()
    assert [row.count for row in oracle_census(3, 1)] == [1, 3]


# -- convergence reports ----------------------------------------------------------


def test_depth1_report_exact_deviation():
    rep = verify_theorem_2n_depth1(1, (100, 1000))
    assert rep.passed
    # C(t,2)*2/t^2 - 1 = -1/t exactly, so the stored deviation is 1/t
    final = [c for c in rep.checks if c.name == "final_deviation"][0]
    assert final.measured == Fraction(1, 1000)


def test_depth1_report_n_zero_is_exact():
    rep = verify_theorem_2n_depth1(0, (10, 100))
    assert rep.passed
    assert any(c.name == "deviation_stays_zero" for c in rep.checks)


def test_depth1_report_validation():
    with pytest.raises(ValueError):
        verify_theorem_2n_depth1(-1, (10,))
    with pytest.raises(ValueError):
        verify_theorem_2n_depth1(1, ())
    with pytest.raises(ValueError):
        verify_theorem_2n_depth1(1, (100, 100))
    with pytest.raises(ValueError):
        verify_theorem_2n_depth1(1, (100, 10))


def test_two_excursions_report():
    rep = verify_theorem_two_excursions(2, (250, 500), Fraction(1, 20))
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert names == ["error_decreases", "final_relative_error"]
    with pytest.raises(ValueError):
        verify_theorem_two_excursions(1)


def test_depth1_report_fails_a_growing_deviation(monkeypatch):
    # a count twice the binomial at the last t moves the ratio away from
    # its limit: the step fails its decrease, and the last t its tolerance
    kernel = census.count_exact_excursions
    monkeypatch.setattr(
        census, "count_exact_excursions",
        lambda t, n, D: kernel(t, n, D) * (2 if t == 1000 else 1),
    )
    rep = verify_theorem_2n_depth1(1, (100, 1000))
    failed = [c.name for c in rep.checks if not c.passed]
    assert failed == ["depth1_count_is_binomial", "deviation_decreases", "final_deviation"]


def two_excursion_report(monkeypatch, count_at):
    """verify_theorem_two_excursions(2, (250, 500)) on the column of
    counts count_at(t)."""
    monkeypatch.setattr(
        census, "census_column",
        lambda t_lo, t_hi, n, D: ((t, count_at(t)) for t in range(t_lo, t_hi + 1)),
    )
    return verify_theorem_two_excursions(2, (250, 500), Fraction(1, 20))


def test_two_excursions_report_fails_a_growing_error(monkeypatch):
    exact = dict(census.census_column(250, 500, 1, 2))
    rep = two_excursion_report(monkeypatch, lambda t: exact[t] * (2 if t == 500 else 1))
    failed = [c.name for c in rep.checks if not c.passed]
    assert failed == ["error_decreases", "final_relative_error"]


def test_two_excursions_report_keeps_a_zero_error_at_zero(monkeypatch):
    # counts whose ratio to t alpha^t rounds to the limit itself give a
    # zero error at both t, which cannot decrease: the step stays zero
    alpha = solve_alpha(2, census._ALPHA_TOL).midpoint()
    limit = Fraction(float(limit_constant("two_excursions_D", 2).midpoint()))
    rep = two_excursion_report(monkeypatch, lambda t: round(limit * t * alpha**t))
    assert rep.passed
    assert [c.name for c in rep.checks] == ["error_stays_zero", "final_relative_error"]
    assert [c.measured for c in rep.checks] == [0, 0.0]


def test_ratio_to_limit_is_the_nearest_double():
    # count/(t base^t) is one correctly rounded division, as the float of
    # the exact rational is
    for D in (2, 3, 12):
        base = solve_alpha(D).midpoint()
        for t in (1, 7, 250, 2000):
            count = count_exact_excursions(t, 1, D)
            assert _ratio_to_limit(count, t, base) == float(Fraction(count, t) / base**t)
    assert _ratio_to_limit(10**30, 3, Fraction(7, 5)) == float(Fraction(10**30, 3) / Fraction(7, 5) ** 3)


# -- table rows --------------------------------------------------------------------


def test_table1_frozen_t20_d2():
    rows = table1(20, 2)
    by_family = {}
    for r in rows:
        by_family.setdefault(r.family, []).append(r)
    assert by_family["all"][0].exact == 524288
    low = by_family["low_lying"][0]
    assert low.exact == count_bounded(20, 2)
    assert abs(low.approx - low.exact) <= 0.5 + 1e-9  # the rnd identity
    depth1 = {r.n: r for r in by_family["depth_one"]}
    assert depth1[1].exact == 190
    assert abs(depth1[1].approx - 200.0) < 1e-6  # t^2/2
    two = by_family["two_excursions"][0]
    assert two.exact == count_exact_excursions(20, 1, 2)
    assert abs(two.approx - two.exact) <= 0.25 * two.exact


def test_table1_approximations_are_correctly_rounded():
    # an independent 120-digit reference: alpha_D as mpmath's root of
    # z^D - z^(D-1) - ... - 1, and each approximation built from it; table1
    # prints 12 digits, and each must be the reference correctly rounded,
    # as must every digit of an approximation beyond the float range
    def rounded(x, digits):
        return Context(prec=digits).plus(Decimal(x))

    for D in (2, 3, 7, 12):
        with mpmath.workdps(120):
            alpha = mpmath.findroot(lambda z: z**D - sum(z**k for k in range(D)), 2)
            d = (alpha - 1) / (2 + (D + 1) * (alpha - 2))
            limit = d**2 / (alpha**D * (alpha - 1))
            for t in (20, 200, 2000, 20000):
                wanted = [d * alpha**t]
                wanted += [mpmath.mpf(t) ** (2 * n) / math.factorial(2 * n) for n in (1, 2, 3)]
                wanted.append(limit * t * alpha**t)
                got = [row.approx for row in table1(t, D)[1:]]
                for value, reference in zip(got, wanted, strict=True):
                    reference = mpmath.nstr(reference, 60)
                    assert rounded(value, 12) == rounded(reference, 12), (D, t)
                    if isinstance(value, Decimal):
                        assert value == rounded(reference, 50), (D, t)


@pytest.mark.parametrize("t", (2000, 20000, 25000))
def test_table1_low_lying_prints_fifty_correct_digits(t):
    # |d alpha^t - count| < 1/2, and the count has more than 50 digits, so
    # the 50-digit approximation is the exact count rounded to 50 digits
    for D in (2, 3, 12):
        low = table1(t, D, n_max=1)[1]
        assert isinstance(low.approx, Decimal)
        assert low.approx == Context(prec=50).plus(Decimal(low.exact)), (D, t)


def test_table1_depth_one_beyond_float_range():
    # t^(2n)/(2n)! leaves the float range at t = 2000 from n = 112 on; its
    # 50 digits are those of the exact quotient
    for row in table1(2000, 2, n_max=130)[2:-1]:
        exact = Context(prec=50).divide(Decimal(2000 ** (2 * row.n)), math.factorial(2 * row.n))
        if row.n < 112:
            assert isinstance(row.approx, float)
        else:
            assert row.approx == exact, row.n


def test_table1_row_layout():
    rows = table1(10, 3, n_max=2)
    assert [r.family for r in rows] == [
        "all", "low_lying", "depth_one", "depth_one", "two_excursions",
    ]
    with pytest.raises(ValueError):
        table1(0, 2)
    with pytest.raises(ValueError):
        table1(10, 1)
    with pytest.raises(ValueError):
        table1(10, 2, n_max=0)


# -- suites ---------------------------------------------------------------------------


def test_suite_registry_names():
    assert set(SUITES) == {
        "bijection", "partition", "closed-form", "double-sum",
        "thm32", "thm34", "lemma33", "matrices",
    }


def test_suites_pass_at_reduced_scales():
    assert suite_bijection(6).passed
    assert suite_partition(t_max=8, d_max=3, oracle_max_t=8).passed
    assert suite_closed_form(t_max=60, d_max=6).passed
    assert suite_double_sum(t_max=60, d_max=4, bounds_t_max=40, bounds_d_max=4).passed
    assert suite_thm32(
        exact_t_max=100, t_list=(1000, 10000), tolerance=Fraction(1, 100)
    ).passed
    assert suite_thm34(d_list=(2,), t_list=(250, 500), tolerance=Fraction(1, 20)).passed
    assert suite_lemma33(t_ref=400, t_max=800, tolerance=Fraction(1, 25)).passed
    assert suite_matrices(t_max=6).passed


# every callable of cuspcensus.__all__ and SUITES that takes a size, each
# size just below its least value; never ZeroDivisionError, IndexError or
# decimal.InvalidOperation, which are not ValueErrors
@pytest.mark.parametrize("entry, kwargs, name", [
    (suite_bijection, dict(t_max=0), "t_max"),
    (suite_partition, dict(t_max=0), "t_max"),
    (suite_partition, dict(d_max=0), "d_max"),
    (suite_partition, dict(oracle_max_t=0), "oracle_max_t"),
    (suite_closed_form, dict(t_max=-5), "t_max"),
    (suite_closed_form, dict(d_max=1), "d_max"),
    (suite_double_sum, dict(t_max=0), "t_max"),
    (suite_double_sum, dict(d_max=1), "d_max"),
    (suite_double_sum, dict(bounds_t_max=0), "bounds_t_max"),
    (suite_double_sum, dict(bounds_d_max=1), "bounds_d_max"),
    (suite_thm32, dict(exact_t_max=0), "exact_t_max"),
    (suite_thm34, dict(d_list=()), "d_list"),
    (suite_matrices, dict(t_max=0), "t_max"),
    (suite_thm32, dict(t_list=(0,)), "t_list[0]"),
    (suite_thm34, dict(t_list=(0,)), "t_list[0]"),
    (suite_thm34, dict(d_list=(1,)), "D"),
    (suite_lemma33, dict(D=1), "D"),
    (suite_lemma33, dict(t_ref=0), "t_ref"),
    (suite_lemma33, dict(t_ref=50, t_max=40), "t_ref"),
    (suite_lemma33, dict(t_ref=1, t_max=3), "t_max"),
    (suite_lemma33, dict(D=3, t_ref=1, t_max=5), "t_max"),
    (suite_lemma33, dict(D=5, t_ref=1, t_max=9), "t_max"),
    (excursion_census, dict(t=0, D=1), "t"),
    (excursion_census, dict(t=3, D=0), "D"),
    (oracle_census, dict(t=0, D=1), "t"),
    (oracle_census, dict(t=3, D=0), "D"),
    (conjugacy_class_sizes, dict(t=0), "t"),
    (table1, dict(t=0, D=2), "t"),
    (table1, dict(t=3, D=1), "D"),
    (table1, dict(t=3, D=2, n_max=0), "n_max"),
    (verify_theorem_2n_depth1, dict(n=-1, t_list=(10,)), "n"),
    (verify_theorem_2n_depth1, dict(n=1, t_list=(0,)), "t_list[0]"),
    (verify_theorem_2n_depth1, dict(n=1, t_list=(3, 2)), "t_list"),
    (verify_theorem_two_excursions, dict(D=1), "D"),
    (verify_theorem_two_excursions, dict(D=2, t_list=(0,)), "t_list[0]"),
    (verify_theorem_two_excursions, dict(D=2, t_list=()), "t_list"),
    (count_all, dict(t=-1), "t"),
    (count_bounded, dict(t=-1, D=1), "t"),
    (count_bounded, dict(t=3, D=0), "D"),
    (count_exact_excursions, dict(t=-1, n=0, D=1), "t"),
    (count_exact_excursions, dict(t=3, n=-1, D=1), "n"),
    (count_exact_excursions, dict(t=3, n=0, D=0), "D"),
    (enumerate_compositions, dict(t=-1), "t"),
    (enumerate_compositions, dict(t=3, n=-1, D=1), "n"),
    (enumerate_compositions, dict(t=3, n=0, D=0), "D"),
    (two_excursion_column, dict(t_lo=0, t_hi=3, D=1), "t_lo"),
    (two_excursion_column, dict(t_lo=1, t_hi=3, D=0), "D"),
    (two_excursion_sum, dict(t=0, D=1), "t"),
    (two_excursion_sum, dict(t=3, D=0), "D"),
    (excursion_parts, dict(c=Composition((1, 2)), depth=0), "depth"),
    (AlphaEnclosure, dict(D=1, lo=Fraction(1), hi=Fraction(2)), "D"),
    (solve_alpha, dict(D=1), "D"),
    (coefficient_d, dict(D=1), "D"),
    (limit_constant, dict(kind="two_excursions_D", parameter=1), "D"),
    (limit_constant, dict(kind="depth_one_2n", parameter=-1), "n"),
    (closed_form_count, dict(t=-1, D=2), "t"),
    (closed_form_count, dict(t=3, D=1), "D"),
    (bounds_two_excursions, dict(t=0, D=2), "t"),
    (bounds_two_excursions, dict(t=3, D=1), "D"),
    (bounds_two_excursions_range, dict(t_lo=0, t_hi=3, D=2), "t_lo"),
    (bounds_two_excursions_range, dict(t_lo=1, t_hi=3, D=1), "D"),
    (excursion_term_report, dict(D=1, t_max=5), "D"),
    (excursion_term_report, dict(D=2, t_max=0), "t_max"),
])
def test_suites_reject_a_size_that_leaves_nothing_to_check(entry, kwargs, name):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be"):
        entry(**kwargs)


SRC = Path(__file__).resolve().parents[1] / "src"


def test_diagnostics_run_without_mpmath():
    script = """
import sys
sys.modules["mpmath"] = None  # any import of mpmath now fails
from cuspcensus.census import table1, verify_theorem_two_excursions
from cuspcensus.cli import main
from cuspcensus.spectral import excursion_term_report
table1(20000, 2)
excursion_term_report(3, 300)
verify_theorem_two_excursions(2, (250, 500))
sys.exit(main(["verify", "--suite", "lemma33"]))
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr.decode()
