"""Acceptance gate: the ten headline guarantees at full scale.

Each test prints exactly one pass/fail line (visible even under captured
output) and enforces its runtime budget.  Scales and tolerances here are
contractual; do not shrink them to make a failure go away.
"""

import math
import time
from fractions import Fraction

from cuspcensus.census import (
    conjugacy_class_sizes,
    excursion_census,
    oracle_census,
    suite_lemma33,
    suite_thm34,
    verify_theorem_2n_depth1,
)
from cuspcensus.compositions import (
    count_bounded,
    count_exact_excursions,
    two_excursion_sum,
)
from cuspcensus.matrices import (
    GEN_A,
    GEN_B,
    PSL2Element,
    classify,
    evaluate,
    reciprocity_check,
)
from cuspcensus.spectral import (
    bounds_two_excursions,
    closed_form_count,
    solve_alpha,
)
from cuspcensus.words import EpsilonSeq, GroupWord, reciprocal_word


def _all_eps(t):
    for mask in range(2**t):
        yield EpsilonSeq(tuple(1 - 2 * ((mask >> i) & 1) for i in range(t)))


class _Gate:
    """Prints the single acceptance line for one criterion."""

    def __init__(self, number, name, budget_seconds, capsys):
        self.number = number
        self.name = name
        self.budget = budget_seconds
        self.capsys = capsys
        self.start = time.perf_counter()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        with self.capsys.disabled():
            print(
                f"acceptance {self.number:02d} {self.name}: {status} "
                f"({elapsed:.2f}s, budget {self.budget:g}s)"
            )
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded budget: "
                f"{elapsed:.2f}s >= {self.budget}s"
            )
        return False


def test_criterion_01_conjugacy_classes_pair_up(capsys):
    with _Gate(1, "conjugacy-classes-pair-up", 30, capsys):
        for t in range(1, 15):
            sizes = conjugacy_class_sizes(t)
            assert len(sizes) == 2 ** (t - 1)
            assert set(sizes.values()) == {2}


def test_criterion_02_census_partitions_all_classes(capsys):
    with _Gate(2, "census-partitions-all-classes", 60, capsys):
        for t in range(1, 21):
            for depth in range(1, 6):
                rows = excursion_census(t, depth)
                assert sum(row.count for row in rows) == 2 ** (t - 1)
        for t in range(1, 19):
            for depth in range(1, 6):
                dp = [(r.t, r.D, r.n, r.count) for r in excursion_census(t, depth)]
                oracle = [(r.t, r.D, r.n, r.count) for r in oracle_census(t, depth)]
                assert dp == oracle


def test_criterion_03_depth_one_census_is_binomial(capsys):
    with _Gate(3, "depth-one-census-is-binomial", 30, capsys):
        for t in range(1, 1001):
            for row in excursion_census(t, 1):
                assert row.count == math.comb(t, 2 * row.n)
        for n in (1, 2, 3):
            report = verify_theorem_2n_depth1(
                n, (1000, 10000, 100000), tolerance=Fraction(1, 1000)
            )
            assert report.passed, [c.name for c in report.checks if not c.passed]


def test_criterion_04_closed_form_matches_census(capsys):
    with _Gate(4, "closed-form-matches-census", 60, capsys):
        for depth in range(2, 13):
            for t in range(0, 501):
                assert closed_form_count(t, depth) == count_bounded(t, depth)


def test_criterion_05_double_sum_matches_census(capsys):
    with _Gate(5, "double-sum-matches-census", 30, capsys):
        for depth in range(2, 9):
            for t in range(1, 301):
                assert two_excursion_sum(t, depth) == count_exact_excursions(
                    t, 1, depth
                )


def test_criterion_06_sandwich_bounds_hold(capsys):
    with _Gate(6, "sandwich-bounds-hold", 30, capsys):
        for depth in range(2, 7):
            for t in range(1, 201):
                lower, upper = bounds_two_excursions(t, depth)
                count = count_exact_excursions(t, 1, depth)
                assert lower <= count <= upper


def test_criterion_07_one_excursion_ratio_converges(capsys):
    with _Gate(7, "one-excursion-ratio-converges", 30, capsys):
        report = suite_thm34(
            d_list=(2, 3, 4), t_list=(500, 1000, 2000), tolerance=Fraction(1, 50)
        )
        finals = [c for c in report.checks if c.name == "final_relative_error"]
        decreases = [
            c
            for c in report.checks
            if c.name == "error_decreases" and c.parameters[1:] == (1000, 2000)
        ]
        assert {c.parameters[0] for c in finals} == {2, 3, 4}
        assert {c.parameters[0] for c in decreases} == {2, 3, 4}
        assert report.passed, [c.name for c in report.checks if not c.passed]


def test_criterion_08_excursion_terms_behave(capsys):
    with _Gate(8, "excursion-terms-behave", 30, capsys):
        report = suite_lemma33(
            D=2, t_ref=500, t_max=2000, tolerance=Fraction(1, 50)
        )
        names = [c.name for c in report.checks]
        assert "term1_ratio_at_reference" in names
        assert "term2_tail_drift" in names and "term3_tail_drift" in names
        assert "term2_tail_growth" in names and "term3_tail_growth" in names
        assert report.passed, [c.name for c in report.checks if not c.passed]


def test_criterion_09_matrix_words_are_hyperbolic(capsys):
    with _Gate(9, "matrix-words-are-hyperbolic", 30, capsys):
        assert PSL2Element.of(GEN_A * GEN_A).is_identity()
        assert PSL2Element.of(GEN_B * GEN_B * GEN_B).is_identity()
        assert classify(evaluate(GroupWord(("a", "b")))) == "parabolic"
        for t in range(1, 13):
            for eps in _all_eps(t):
                form = reciprocal_word(eps)
                assert classify(evaluate(form.word)) == "hyperbolic"
                assert reciprocity_check(eps)


def test_criterion_10_growth_rates_certified(capsys):
    with _Gate(10, "growth-rates-certified", 1, capsys):
        previous = None
        for depth in range(2, 13):
            enc = solve_alpha(depth, Fraction(1, 10**14))
            assert 2 * (1 - Fraction(1, 2**depth)) <= enc.lo
            assert enc.hi < 2
            if previous is not None:
                assert previous.hi < enc.lo
            previous = enc
        golden = (1 + Fraction(math.isqrt(5 * 10**60), 10**30)) / 2
        enc2 = solve_alpha(2, Fraction(1, 10**14))
        midpoint = (enc2.lo + enc2.hi) / 2
        assert abs(midpoint - golden) < Fraction(1, 10**12)
