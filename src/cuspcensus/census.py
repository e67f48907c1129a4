"""Census of reciprocal geodesics by word length and excursion count.

Ties the other modules together: the combinatorial counts (compositions),
the brute-force sign-mask oracle, the word-level conjugacy grouping
(words) and the certified constants (spectral) meet here in cross-checked
census tables, a growth table rounded with proof and convergence reports
whose ratios are each one correctly rounded division of exact integers.

Counts are produced by two unrelated routes and compared cell by cell:

* the DP route counts compositions of t with exactly n parts bigger
  than D;
* the oracle route tallies all 2^t sign tuples as bit masks (bit i set
  when e_{i+1} = -1): it projectivizes each by complementing the masks
  with bit 0 set, counts the class sizes in a byte table of 2^t bytes,
  verifies the two-to-one collapse, and reads the run lengths off the
  bits where neighbouring signs differ.

Asymptotic statements are limits, so they are verified as convergence
checks with explicit tolerances; every tolerance appears in the emitted
report.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import compress, product, zip_longest
from typing import Iterable, Optional, Sequence, Union

from ._contract import check_least
from .compositions import (
    census_column,
    census_row,
    census_rows,
    count_all,
    count_bounded,
    count_exact_excursions,
    two_excursion_column,
)
from .spectral import (
    bounds_two_excursions_range,
    closed_form_count,
    excursion_term_report,
    growth_approximations,
    limit_constant,
    rounded_ratio,
    solve_alpha,
)
from .words import EpsilonSeq, canonical_cyclic_form, reciprocal_word

Number = Union[int, float, Fraction]

#: largest t for which the tuple-space oracle runs by default (2^18 tuples)
DEFAULT_ORACLE_CAP = 18

#: largest t for which normal forms are grouped by cyclic conjugacy
CONJUGACY_CAP = 14

_ALPHA_TOL = Fraction(1, 10**12)


class CapExceeded(ValueError):
    """Requested an oracle sweep beyond its configured exhaustive cap."""


@dataclass(frozen=True)
class CensusRow:
    """One census cell: reciprocal geodesics of word length 4t with
    exactly 2n excursions of depth bigger than D."""

    t: int
    D: int
    n: int
    count: int
    source: str  # "dp" | "oracle"


@dataclass(frozen=True)
class Check:
    """A single named verification with its numbers pinned.

    comparison "within": passes iff |measured - expected| <= tolerance,
    scaled by |expected| when relative is set.  comparison "below": passes
    iff measured < expected (strict, one-sided); tolerance is ignored.
    All comparisons are exact (Fraction arithmetic on the stored values).
    """

    name: str
    parameters: tuple
    measured: Number
    expected: Number
    tolerance: Number
    relative: bool
    comparison: str
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    name: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _within(name, parameters, measured, expected, tolerance, relative=False) -> Check:
    m, e, tol = Fraction(measured), Fraction(expected), Fraction(tolerance)
    bound = tol * abs(e) if relative else tol
    return Check(
        name, tuple(parameters), measured, expected, tolerance, relative,
        "within", abs(m - e) <= bound,
    )


def _mismatches(a: Iterable, b: Iterable) -> int:
    """The number of unequal pairs of a and b, read in step; each item of
    the longer one past the end of the shorter counts too."""
    missing = object()
    return sum(1 for x, y in zip_longest(a, b, fillvalue=missing) if x != y)


def _below(name, parameters, measured, expected) -> Check:
    return Check(
        name, tuple(parameters), measured, expected, 0, False,
        "below", Fraction(measured) < Fraction(expected),
    )


def excursion_census(t: int, D: int) -> list[CensusRow]:
    """DP census rows for word length 4t, one per admissible n.

    Row counts sum to 2^{t-1}: the census partitions all reciprocal
    geodesics of that length.
    """
    check_least(t=(t, 1), D=(D, 1))
    return [CensusRow(t, D, n, count, "dp") for n, count in enumerate(census_row(t, D))]


def _run_lengths(t: int, mask: int) -> tuple[int, ...]:
    """Sorted run lengths of the sign tuple of mask: a run ends after
    e_{i+1} wherever bit i of mask ^ (mask >> 1) is set, i < t - 1."""
    ends = (mask ^ (mask >> 1)) & ((1 << (t - 1)) - 1)
    parts = []
    start = 0
    while ends:
        end = (ends & -ends).bit_length()
        parts.append(end - start)
        start = end
        ends &= ends - 1
    parts.append(t - start)
    return tuple(sorted(parts))


@functools.cache
def _oracle_tally(t: int) -> tuple[Counter, Counter]:
    """Enumerate every sign mask at size t and projectivize it (complement
    when bit 0 is set, so the representative starts with +1).  Returns
    how many classes have each size, and the classes tallied by their
    sorted run lengths, one entry per partition of t.  Cached per t.

    The class sizes are counted in a byte table, one byte per mask
    (2^t bytes), indexed by the representative; a size past 255 raises
    ValueError rather than wrapping.
    """
    full = (1 << t) - 1
    hits = bytearray(1 << t)
    for m in range(1 << t):
        hits[m ^ full if m & 1 else m] += 1
    return (
        Counter(filter(None, hits)),
        Counter(_run_lengths(t, m) for m in compress(range(1 << t), hits)),
    )


def conjugacy_class_sizes(t: int) -> Counter:
    """Group the 2^t reciprocal normal forms at size t by canonical cyclic
    form; maps each class representative to its number of normal forms.

    Every class must have size exactly 2.  The census's only word route:
    recomputed on every call, and capped at t = CONJUGACY_CAP.
    """
    check_least(t=(t, 1))
    if t > CONJUGACY_CAP:
        raise CapExceeded(f"conjugacy grouping is capped at t <= {CONJUGACY_CAP}")
    return Counter(
        str(canonical_cyclic_form(reciprocal_word(EpsilonSeq(signs)).word))
        for signs in product((1, -1), repeat=t)
    )


def oracle_census(t: int, D: int, cap: int = DEFAULT_ORACLE_CAP) -> list[CensusRow]:
    """Brute-force census over sign masks, independent of the DP route and
    of the word route.  Checks the two-to-one projectivization before the
    tally; the cyclic-conjugacy pairing is suite_bijection's check."""
    check_least(t=(t, 1), D=(D, 1))
    if t > cap:
        raise CapExceeded(f"oracle census capped at t <= {cap}, got {t}")
    sizes, runs = _oracle_tally(t)
    if sizes != {2: count_all(t)}:
        raise RuntimeError(f"projectivization is not two-to-one at t={t}")
    hist: Counter = Counter()
    for parts, classes in runs.items():
        hist[sum(1 for p in parts if p > D)] += classes
    return [
        CensusRow(t, D, n, hist.get(n, 0), "oracle")
        for n in range(t // (D + 1) + 1)
    ]


def _ratio_to_limit(count: int, t: int, power_base: Fraction) -> float:
    """count/(t * base^t), correctly rounded: for base = p/q it is one
    division of integers, count q^t / (t p^t), with q's power of two
    2^k raised to the t as a shift by k t."""
    p, q = power_base.numerator, power_base.denominator
    k = (q & -q).bit_length() - 1
    return ((count * (q >> k) ** t) << (k * t)) / (t * p**t)


def _check_t_list(t_list: Sequence[int]) -> None:
    """The t of a convergence check are nonempty, strictly ascending and
    at least 1, so that every count and ratio along them is defined."""
    if not t_list or list(t_list) != sorted(set(t_list)):
        raise ValueError("t_list must be nonempty and strictly ascending")
    check_least(**{"t_list[0]": (t_list[0], 1)})


def _convergence_checks(name, final, key, errors, tolerance) -> list[Check]:
    """The checks of one convergence along its (t, error) pairs, ascending
    in t: for each step, name_decreases (the error shrinks strictly), or
    name_stays_zero when both errors are 0; then final, the last error
    within tolerance of 0.  key leads the parameters of every check."""
    checks = [
        _within(f"{name}_stays_zero", (key, t1, t2), 0, 0, 0) if e1 == e2 == 0
        else _below(f"{name}_decreases", (key, t1, t2), e2, e1)
        for (t1, e1), (t2, e2) in zip(errors, errors[1:])
    ]
    t_last, e_last = errors[-1]
    checks.append(_within(final, (key, t_last), e_last, 0, tolerance))
    return checks


def verify_theorem_2n_depth1(
    n: int,
    t_list: Sequence[int],
    tolerance: Fraction = Fraction(1, 1000),
) -> VerificationReport:
    """At depth 1: the census count equals C(t, 2n) exactly, and
    C(t,2n)/t^{2n} converges to 1/(2n)! with the deviation shrinking along
    t_list and below tolerance at its last entry.  The cells are checked
    against math.comb, and the limit is spectral.limit_constant's exact one."""
    check_least(n=(n, 0))
    _check_t_list(t_list)
    limit = limit_constant("depth_one_2n", n).midpoint()
    checks = []
    deviations = []
    for t in t_list:
        count = count_exact_excursions(t, n, 1)
        checks.append(
            _within("depth1_count_is_binomial", (t, n), count, math.comb(t, 2 * n), 0)
        )
        # exact rational deviation of the ratio from its limit
        deviations.append((t, abs(Fraction(count, t ** (2 * n)) / limit - 1)))
    checks += _convergence_checks("deviation", "final_deviation", n, deviations, tolerance)
    return VerificationReport(f"depth1_excursions_n={n}", tuple(checks))


def verify_theorem_two_excursions(
    D: int,
    t_list: Sequence[int] = (500, 1000, 2000),
    tolerance: Fraction = Fraction(1, 50),
) -> VerificationReport:
    """The single-deep-excursion count over t*alpha_D^t converges to
    d_D^2/(alpha_D^D (alpha_D - 1)): relative error below tolerance at the
    last t and strictly shrinking between consecutive t.

    Counts are exact and alpha comes from a certified enclosure whose
    width contributes well under a tenth of the tolerance; floating point
    enters only in the final reported ratio.
    """
    check_least(D=(D, 2))
    _check_t_list(t_list)
    alpha = solve_alpha(D, _ALPHA_TOL)
    limit = float(limit_constant("two_excursions_D", D).midpoint())
    wanted = set(t_list)
    # one walk of the column serves every t of t_list
    errors = [
        (t, abs(_ratio_to_limit(count, t, alpha.midpoint()) - limit) / limit)
        for t, count in census_column(t_list[0], t_list[-1], 1, D) if t in wanted
    ]
    checks = _convergence_checks("error", "final_relative_error", D, errors, tolerance)
    return VerificationReport(f"two_excursions_D={D}", tuple(checks))


@dataclass(frozen=True)
class Table1Row:
    """One family row of the headline growth table.

    approx is the nearest float to the family's growth law or, beyond the
    float range, the Decimal of its nearest spectral.RATIO_DPS digits.
    """

    family: str
    t: int
    D: Optional[int]
    n: Optional[int]
    exact: int
    approx: Optional[Union[float, Decimal]]


def _approx(value: Union[float, tuple[int, int]]) -> Union[float, Decimal]:
    """A float as it is, and (m, e) as the Decimal m * 10^e, read exactly."""
    return value if isinstance(value, float) else Decimal("{}e{}".format(*value))


def table1(t: int, D: int, n_max: int = 3) -> list[Table1Row]:
    """The four census families at word length 4t: all reciprocal
    geodesics, the D-low-lying ones, those with 2n depth-1 excursions for
    n = 1..n_max, and those with two depth-D excursions; exact counts next
    to their asymptotic approximations."""
    check_least(t=(t, 1), D=(D, 2), n_max=(n_max, 1))
    low_lying, two_excursions = map(_approx, growth_approximations(t, D))
    return [
        Table1Row("all", t, None, None, count_all(t), None),
        Table1Row("low_lying", t, D, None, count_bounded(t, D), low_lying),
        *(
            Table1Row("depth_one", t, 1, n, math.comb(t, 2 * n),
                      _approx(rounded_ratio(t ** (2 * n), math.factorial(2 * n))))
            for n in range(1, n_max + 1)
        ),
        Table1Row("two_excursions", t, D, 1, count_exact_excursions(t, 1, D), two_excursions),
    ]


# -- verification suites ---------------------------------------------------------
#
# Each suite aggregates the checks behind one headline claim, sized so the
# full battery stays within interactive runtimes at its defaults.  A size
# below its least value would leave a suite with no check, or an empty
# range, to pass on, so it is rejected by name.


def suite_bijection(t_max: int = 14) -> VerificationReport:
    """Normal forms at every t <= t_max pair up two-to-one under cyclic
    conjugacy into 2^{t-1} classes."""
    check_least(t_max=(t_max, 1))
    if t_max > CONJUGACY_CAP:
        raise CapExceeded(f"conjugacy grouping is capped at t <= {CONJUGACY_CAP}")
    checks = []
    for t in range(1, t_max + 1):
        sizes = conjugacy_class_sizes(t)
        checks.append(
            _within("conjugacy_class_count", (t,), len(sizes), count_all(t), 0)
        )
        off = sum(1 for v in sizes.values() if v != 2)
        checks.append(_within("classes_not_of_size_two", (t,), off, 0, 0))
    return VerificationReport("bijection", tuple(checks))


def suite_partition(
    t_max: int = 20, d_max: int = 5, oracle_max_t: int = DEFAULT_ORACLE_CAP
) -> VerificationReport:
    """Census rows partition the 2^{t-1} geodesics, and both DP routes
    match the tuple-space oracle cell by cell for t <= oracle_max_t: the
    point rows of excursion_census and the kernel's rows, one pass of
    census_rows per D."""
    check_least(t_max=(t_max, 1), d_max=(d_max, 1), oracle_max_t=(oracle_max_t, 1))
    checks = []
    cell = operator.attrgetter("t", "D", "n", "count")
    for D in range(1, d_max + 1):
        for t, kernel_row in census_rows(1, t_max, D):
            rows = excursion_census(t, D)
            checks.append(
                _within(
                    "row_sum", (t, D), sum(r.count for r in rows), count_all(t), 0
                )
            )
            if t <= oracle_max_t:
                oracle = oracle_census(t, D, cap=oracle_max_t)
                mismatches = _mismatches(map(cell, rows), map(cell, oracle))
                mismatches += _mismatches(kernel_row, (r.count for r in oracle))
                checks.append(_within("dp_vs_oracle_cells", (t, D), mismatches, 0, 0))
    return VerificationReport("partition", tuple(checks))


def suite_closed_form(t_max: int = 500, d_max: int = 12) -> VerificationReport:
    """rnd(d_D alpha_D^t) equals the exact bounded count everywhere."""
    check_least(t_max=(t_max, 0), d_max=(d_max, 2))
    checks = []
    for D in range(2, d_max + 1):
        mismatches = sum(
            1 for t, count in census_column(0, t_max, 0, D)
            if closed_form_count(t, D) != count
        )
        checks.append(_within("closed_form_mismatches", (D, t_max), mismatches, 0, 0))
    return VerificationReport("closed-form", tuple(checks))


def suite_double_sum(
    t_max: int = 300, d_max: int = 8, bounds_t_max: int = 200, bounds_d_max: int = 6
) -> VerificationReport:
    """The positional double sum reproduces the one-excursion census, and
    the closed-form estimates sandwich it.  The census and the double sums
    are each read one column per D; a t where two columns do not line up
    counts as a mismatch, or a violation."""
    check_least(
        t_max=(t_max, 1), d_max=(d_max, 2),
        bounds_t_max=(bounds_t_max, 1), bounds_d_max=(bounds_d_max, 2),
    )
    checks = []
    for D in range(2, d_max + 1):
        mismatches = _mismatches(
            census_column(1, t_max, 1, D), two_excursion_column(1, t_max, D)
        )
        checks.append(_within("double_sum_mismatches", (D, t_max), mismatches, 0, 0))
    for D in range(2, bounds_d_max + 1):
        pairs = zip_longest(
            census_column(1, bounds_t_max, 1, D),
            bounds_two_excursions_range(1, bounds_t_max, D),
        )
        violations = sum(
            1 for cell, bound in pairs
            if cell is None or bound is None or cell[0] != bound[0]
            or not bound[1] <= cell[1] <= bound[2]
        )
        checks.append(
            _within("sandwich_violations", (D, bounds_t_max), violations, 0, 0)
        )
    return VerificationReport("double-sum", tuple(checks))


def _binomial_row(t: int) -> list[int]:
    """C(t, 0), ..., C(t, t): the reference of the depth-1 sweep, built from
    t alone and without the counting kernel.  The first half, k <= t/2, is
    built by C(t, k+1) = C(t, k) (t - k) / (k + 1), where the division is
    exact, and the rest mirrored from it by C(t, k) = C(t, t - k)."""
    row = [1]
    for k in range(t // 2):
        row.append(row[-1] * (t - k) // (k + 1))
    return row + row[: t - t // 2][::-1]


def suite_thm32(
    exact_t_max: int = 1000,
    t_list: Sequence[int] = (1000, 10000, 100000),
    tolerance: Fraction = Fraction(1, 1000),
) -> VerificationReport:
    """Depth-1 census equals C(t,2n) exactly, with the normalized ratio
    converging to 1/(2n)!.  The exact sweep compares each kernel row with
    the even entries of the binomial row of t; a row of the wrong length
    counts its missing or extra cells as mismatches."""
    check_least(exact_t_max=(exact_t_max, 1))
    _check_t_list(t_list)
    checks = []
    mismatches = 0
    for t, row in census_rows(1, exact_t_max, 1):
        mismatches += _mismatches(row, _binomial_row(t)[::2])
    checks.append(
        _within("depth1_exact_sweep_mismatches", (exact_t_max,), mismatches, 0, 0)
    )
    for n in (1, 2, 3):
        checks.extend(verify_theorem_2n_depth1(n, t_list, tolerance).checks)
    return VerificationReport("thm32", tuple(checks))


def suite_thm34(
    d_list: Sequence[int] = (2, 3, 4),
    t_list: Sequence[int] = (500, 1000, 2000),
    tolerance: Fraction = Fraction(1, 50),
) -> VerificationReport:
    """Convergence of the one-excursion count to its t alpha^t asymptote."""
    if not d_list:
        raise ValueError("d_list must be nonempty")
    checks = []
    for D in d_list:
        checks.extend(verify_theorem_two_excursions(D, t_list, tolerance).checks)
    return VerificationReport("thm34", tuple(checks))


def _fit_drift(rows: Sequence[tuple], index: int) -> tuple[float, float]:
    """Least-squares drift (slope times span) of one ratio column over the
    given rows, and the column mean."""
    ts = [float(r[0]) for r in rows]
    ys = [float(r[index]) for r in rows]
    n = len(ts)
    tbar = sum(ts) / n
    ybar = sum(ys) / n
    sxy = sum((x - tbar) * (y - ybar) for x, y in zip(ts, ys))
    sxx = sum((x - tbar) ** 2 for x in ts)
    slope = sxy / sxx
    return slope * (ts[-1] - ts[0]), ybar


def suite_lemma33(
    D: int = 2, t_ref: int = 500, t_max: int = 2000,
    tolerance: Fraction = Fraction(1, 50),
) -> VerificationReport:
    """The dominant term tracks its t alpha^t asymptote and the two cross
    terms stay bounded: their fitted drift over the tail is zero within
    noise.  The reference t_ref lies in 1..t_max, and t_max is at least
    2D, so that the tail t > t_max // 2 starts where the cross terms are
    nonzero (t > D)."""
    check_least(D=(D, 2), t_ref=(t_ref, 1), t_max=(t_max, 2 * D))
    if t_ref > t_max:
        raise ValueError(f"t_ref must be <= t_max = {t_max}, got {t_ref}")
    rep = excursion_term_report(D, t_max)
    checks = []
    ratio_ref = rep.rows[t_ref - 1][1]
    checks.append(
        _within(
            "term1_ratio_at_reference", (D, t_ref),
            ratio_ref, rep.term1_limit, tolerance, relative=True,
        )
    )
    tail = rep.rows[t_max // 2 :]
    for label, index in (("term2", 2), ("term3", 3)):
        drift, mean = _fit_drift(tail, index)
        checks.append(
            _within(
                f"{label}_tail_drift", (D, t_max // 2, t_max),
                drift, 0, 1e-6 * mean,
            )
        )
        growth = rep.rows[-1][index] / rep.rows[t_max // 2][index] - 1
        checks.append(
            _within(f"{label}_tail_growth", (D, t_max // 2, t_max), growth, 0, 1e-9)
        )
    return VerificationReport("lemma33", tuple(checks))


def suite_matrices(t_max: int = 12) -> VerificationReport:
    """Generator relations, parabolicity of ab, and hyperbolicity plus the
    involution factorization of every normal form."""
    check_least(t_max=(t_max, 1))
    from .matrices import (
        GEN_A, GEN_B, PSL2Element, classify, evaluate, factors_through_involution,
    )
    from .words import GroupWord

    a = PSL2Element.of(GEN_A)
    b = PSL2Element.of(GEN_B)
    checks = [
        _within("a_squared_is_identity", (), int((a * a).is_identity()), 1, 0),
        _within("b_cubed_is_identity", (), int((b * b * b).is_identity()), 1, 0),
        _within(
            "ab_is_parabolic", (),
            int(classify(evaluate(GroupWord.from_string("ab"))) == "parabolic"), 1, 0,
        ),
    ]
    for t in range(1, t_max + 1):
        bad = 0
        for signs in product((1, -1), repeat=t):
            word = reciprocal_word(EpsilonSeq(signs)).word
            # the full word is evaluated once, for both checks
            w = evaluate(word)
            if classify(w) != "hyperbolic" or not factors_through_involution(word, w):
                bad += 1
        checks.append(_within("non_reciprocal_normal_forms", (t,), bad, 0, 0))
    return VerificationReport("matrices", tuple(checks))


SUITES = {
    "bijection": suite_bijection,
    "partition": suite_partition,
    "closed-form": suite_closed_form,
    "double-sum": suite_double_sum,
    "thm32": suite_thm32,
    "thm34": suite_thm34,
    "lemma33": suite_lemma33,
    "matrices": suite_matrices,
}
