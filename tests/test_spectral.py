"""Tests for spectral: root enclosures, derived constants, closed-form
counts, certified bounds, term diagnostics."""

import ast
import math
import os
import subprocess
import sys
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from cuspcensus import spectral
from cuspcensus.compositions import count_bounded, count_exact_excursions
from cuspcensus.spectral import (
    AlphaEnclosure,
    ConstantEnclosure,
    PrecisionExhausted,
    _bracket,
    _Dyadic,
    _excursion_terms,
    _power,
    _scaled_q,
    _steps_for,
    bounds_two_excursions,
    bounds_two_excursions_range,
    closed_form_count,
    coefficient_d,
    excursion_term_report,
    growth_approximations,
    limit_constant,
    rounded_ratio,
    solve_alpha,
)

#: scale of the intervals in the interval-arithmetic tests
K = 12

grid_points = st.integers(-8 << K, 8 << K)
rationals = st.fractions(min_value=-8, max_value=8, max_denominator=1 << 20)


def interval_around(a, b):
    return _Dyadic(min(a, b), max(a, b), K)


def encloses(interval, x):
    lo, hi = (Fraction(end, 1 << interval.k) for end in (interval.lo, interval.hi))
    return lo <= x <= hi


def clamp(x, interval):
    """The point of the interval nearest to x."""
    unit = 1 << interval.k
    return min(max(x, Fraction(interval.lo, unit)), Fraction(interval.hi, unit))


def sqrt5_bounds(digits):
    """Rational bracket of sqrt(5) via integer square root; width 10^-digits."""
    scale = 10**digits
    root = math.isqrt(5 * scale * scale)
    return Fraction(root, scale), Fraction(root + 1, scale)


# -- interval arithmetic -------------------------------------------------------


def test_interval_validation_and_basics():
    with pytest.raises(ValueError):
        _Dyadic(1, 0, K)  # empty
    with pytest.raises(ValueError):
        _Dyadic(0, 1, K) + _Dyadic(0, 1, K + 1)  # scales differ
    x = _Dyadic(1, 3, 4)
    enc = x.enclosure()
    assert (enc.lo, enc.hi) == (Fraction(1, 16), Fraction(3, 16))
    assert encloses(x, Fraction(1, 8)) and not encloses(x, Fraction(1, 4))


@given(grid_points, grid_points, grid_points, grid_points, rationals, rationals,
       st.integers(-5, 5))
def test_interval_arithmetic_encloses_points(a, b, c, d, x, y, n):
    X, Y = interval_around(a, b), interval_around(c, d)
    x, y = clamp(x, X), clamp(y, Y)
    assert encloses(X + Y, x + y)
    assert encloses(X - Y, x - y)
    assert encloses(X * Y, x * y)
    assert encloses(X + n, x + n) and encloses(X - n, x - n)
    assert encloses(X * n, x * n)
    if Y.lo > 0 or Y.hi < 0:
        assert encloses(X / Y, x / y)
    if n:
        assert encloses(X / n, x / n)
    if X.lo >= 0:
        assert encloses(X ** abs(n), x ** abs(n))


def test_interval_division_by_zero_straddler():
    with pytest.raises(ZeroDivisionError):
        _Dyadic(1 << K, 1 << K, K) / _Dyadic(-1, 1, K)
    with pytest.raises(ZeroDivisionError):
        _Dyadic(1 << K, 1 << K, K) / 0


# -- the polynomial -------------------------------------------------------------


def plain_p(D, z):
    """p_D(z) = z^D - z^{D-1} - ... - 1 from powers, not by Horner."""
    return z**D - sum(z**j for j in range(D))


def fraction_q(D, num, den):
    """den^(D+1) q(num/den), q(z) = z^D (z - 2) + 1, on Fractions."""
    z = Fraction(num, den)
    return den ** (D + 1) * (z**D * (z - 2) + 1)


def test_scaled_q_identities():
    # den^(D+1) q(num/den), q(z) = z^D (z - 2) + 1 = (z - 1) p_D(z)
    assert _scaled_q(2, 2, 1) == 1
    assert _scaled_q(2, 1, 1) == 0  # z = 1 is the root that q adds to p_D
    assert _scaled_q(3, 3, 2) == fraction_q(3, 3, 2) == 16 * (
        Fraction(3, 2) - 1) * plain_p(3, Fraction(3, 2))
    for D in range(2, 16):
        assert _scaled_q(D, 2, 1) == 1  # q(2) = 1 for every D
        assert _scaled_q(D, 1, 1) == 0
        assert _scaled_q(D, 6, 3) == 3 ** (D + 1)  # any denominator
        assert _scaled_q(D, 2 << 40, 1 << 40) == 1 << 40 * (D + 1)  # a shift
        for num, den in [(3, 2), (5, 3), (7, 4), (255, 128), (12345, 1 << 13)]:
            z = Fraction(num, den)
            assert _scaled_q(D, num, den) == fraction_q(D, num, den)
            assert _scaled_q(D, num, den) == (num - den) * den**D * plain_p(D, z)


# -- alpha enclosures ------------------------------------------------------------


def test_alpha_golden_ratio():
    # alpha_2 solves z^2 - z - 1; certify the digits by exact sign change
    assert plain_p(2, Fraction("1.6180339887")) < 0
    assert plain_p(2, Fraction("1.6180339888")) > 0
    enc = solve_alpha(2, Fraction(1, 10**12))
    lo5, hi5 = sqrt5_bounds(30)
    assert enc.lo <= (1 + hi5) / 2 and (1 + lo5) / 2 <= enc.hi


def test_alpha_tribonacci():
    assert plain_p(3, Fraction("1.8392867552")) < 0
    assert plain_p(3, Fraction("1.8392867553")) > 0
    enc = solve_alpha(3, Fraction(1, 10**10))
    assert enc.lo <= Fraction("1.8392867553")
    assert Fraction("1.8392867552") <= enc.hi


def test_alpha_enclosure_invariants():
    for D in range(2, 13):
        enc = solve_alpha(D, Fraction(1, 10**9))
        assert Fraction(2) - Fraction(1, 1 << (D - 1)) <= enc.lo < enc.hi < 2
        assert plain_p(D, enc.lo) < 0 < plain_p(D, enc.hi)
        assert enc.width <= Fraction(1, 10**9)


def test_alpha_strictly_increasing_in_depth():
    prev = solve_alpha(2, Fraction(1, 10**9))
    for D in range(3, 13):
        cur = solve_alpha(D, Fraction(1, 10**9))
        assert prev.hi < cur.lo
        prev = cur


def test_alpha_enclosure_type_rejects_bad_brackets():
    with pytest.raises(ValueError):
        AlphaEnclosure(2, Fraction(1), Fraction(3, 2))  # below a-priori bracket
    with pytest.raises(ValueError):
        AlphaEnclosure(2, Fraction(17, 10), Fraction(19, 10))  # no sign change
    with pytest.raises(ValueError):
        AlphaEnclosure(1, Fraction(3, 2), Fraction(8, 5))


SRC = Path(__file__).resolve().parents[1] / "src"


def solve_alpha_in_fresh_interpreter(*tolerances):
    """Endpoints of solve_alpha(5, tol) for the last of the tolerances,
    asked in turn by a new interpreter, so no bracket is cached before."""
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from cuspcensus import solve_alpha\n"
        "for tol in sys.argv[1:]:\n"
        "    enc = solve_alpha(5, Fraction(tol))\n"
        "print(enc.lo, enc.hi)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code, *tolerances],
        capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout


def test_bisection_deterministic_endpoints():
    # a coarse bracket computed first must not change the fine one: the
    # endpoints may not depend on the history of the process
    fine = f"1/{10**90}"
    coarse = f"1/{10**40}"
    straight = solve_alpha_in_fresh_interpreter(fine)
    resumed = solve_alpha_in_fresh_interpreter(coarse, fine)
    assert straight == resumed
    lo, hi = map(Fraction, straight.split())
    assert 0 < hi - lo <= Fraction(1, 10**90)


def _below_alpha(D, m, k):
    """m/2^k < alpha_D, for 1 < m/2^k < 2.

    There q(z) = (z - 1) p_D(z) = 1 - z^D (2 - z) is negative exactly left
    of the root, so the test is z^D (2 - z) > 1.  z^D is bounded from both
    sides with 64 guard bits by directed-rounding powers; only when the
    bounds straddle 1 is the exact integer comparison made.
    """
    bits = k + 64
    rest = (2 << k) - m  # (2 - z) 2^k
    one = 1 << (bits + k)
    if _power(m << 64, D, bits, False) * rest > one:
        return True
    if _power(m << 64, D, bits, True) * rest < one:
        return False
    return m**D * rest > 1 << k * (D + 1)


def _bisection_brackets(D, wanted):
    """Reference for _bracket: [2 - 2^{1-D}, 2] bisected `steps` times,
    as integers over 2^(D-1+steps), for each steps in wanted."""
    lo, hi = (1 << D) - 1, 1 << D
    k = D - 1
    brackets = {}
    for steps in range(1, max(wanted) + 1):
        mid = lo + hi
        k += 1
        if _below_alpha(D, mid, k):
            lo, hi = mid, hi << 1
        else:
            lo, hi = lo << 1, mid
        if steps in wanted:
            brackets[steps] = (lo, hi)
    return brackets


@pytest.mark.parametrize("D", [*range(2, 13), 30, 66, 100])
def test_bracket_equals_bisection(D):
    wanted = (1, 2, 3, 64, 128, 640, 1280, 2560)
    expected = _bisection_brackets(D, wanted)
    assert {steps: _bracket(D, steps) for steps in wanted} == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 60), st.integers(1, 700))
@example(2, 1)
@example(60, 700)
def test_bracket_equals_bisection_everywhere(D, steps):
    assert _bracket(D, steps) == _bisection_brackets(D, {steps})[steps]


@pytest.mark.parametrize("candidate", [
    lambda D, k: 3 << k,  # far above alpha_D
    lambda D, k: (3 << k) // 2,  # far below it
    lambda D, k: 1 << k,  # z = 1, a root of q but not of p_D
    lambda D, k: -(2 << k),  # below 1, where q and p_D need not share a sign
    lambda D, k: -(618034 << k) // 10**6,  # at -1/phi, a root of p_2
])
def test_bracket_walks_a_bounded_distance(monkeypatch, candidate):
    # the Newton candidate is not trusted: one far from alpha_D raises after
    # a fixed number of sign tests, and one at or below 1 is not walked
    calls = []
    scaled_q = spectral._scaled_q

    def counted(*args):
        calls.append(args)
        return scaled_q(*args)

    monkeypatch.setattr(spectral, "_scaled_q", counted)
    monkeypatch.setattr(spectral, "_alpha_candidate", candidate)
    for D, steps in [(2, 16), (3, 16), (5, 64), (12, 640)]:
        calls.clear()
        with pytest.raises(RuntimeError, match="not within"):
            _bracket(D, steps)
        assert len(calls) <= spectral._WALK_LIMIT + 1


def _spectral_tree():
    return ast.parse((SRC / "cuspcensus" / "spectral.py").read_text(encoding="utf-8"))


def _spectral_imports():
    """The modules spectral.py imports, relative ones with their dots."""
    imported = set()
    for node in ast.walk(_spectral_tree()):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            imported.update(f".{alias.name}" for alias in node.names if node.level)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    return imported


def test_closed_form_route_does_not_reach_the_dp():
    # the certified closed form is checked against the DP, so it may not
    # be computed from it: spectral imports nothing from compositions
    imported = _spectral_imports()
    assert not {
        name for name in imported if name.split(".")[-1] == "compositions"
    }, imported


def test_spectral_has_one_arithmetic():
    # the term report runs on the dyadic intervals of the bounds, not on a
    # second, decimal arithmetic: spectral takes only Decimal from decimal,
    # and builds one in one place, as the digits rounded_ratio returns
    tree = _spectral_tree()
    taken = [
        (getattr(node, "module", None), alias.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if "decimal" in (getattr(node, "module", None), alias.name)
    ]
    assert taken == [("decimal", "Decimal")]
    built = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Decimal"
    ]
    rounded = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "rounded_ratio"
    )
    returned = [node.value for node in ast.walk(rounded) if isinstance(node, ast.Return)]
    assert len(built) == 1 and any(node is built[0] for node in returned)


def test_spectral_builds_fractions_only_for_returned_values():
    # precision is decided on integers: a function body calls Fraction only
    # to parse a tolerance, to return a value or to validate an enclosure
    builders = {
        function.name
        for function in ast.walk(_spectral_tree())
        if isinstance(function, ast.FunctionDef)
        for statement in function.body
        for node in ast.walk(statement)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Fraction"
    }
    assert builders == {
        "enclosure", "__init__", "_tolerance", "solve_alpha",
        "limit_constant", "_bounds_range",
    }


def test_bracket_validation():
    with pytest.raises(ValueError):
        _bracket(1, 10)
    with pytest.raises(ValueError):
        _bracket(3, 0)


def test_solve_alpha_validation():
    with pytest.raises(ValueError):
        solve_alpha(1)
    with pytest.raises(ValueError):
        solve_alpha(3, 0)
    with pytest.raises(ValueError):
        solve_alpha(3, Fraction(-1, 10**9))


def steps_by_halving(D, tol):
    """Reference for _steps_for: the bracket's width 2^-(D-1) after one
    bisection, halved once per further step until it is at most tol."""
    steps = 1
    width = Fraction(1, 1 << (D - 1))
    while width > tol:
        steps += 1
        width /= 2
    return steps


# integers below 10^300 of every length, and powers of two with their
# nearest neighbours at 50 digits, where the depth steps up
sized = st.integers(1, 300).flatmap(lambda n: st.integers(10 ** (n - 1), 10**n - 1))
powers_of_two = st.builds(
    lambda e, nudge: Fraction(2) ** e * (1 + Fraction(nudge, 10**50)),
    st.integers(-990, 990), st.sampled_from([-1, 0, 1]),
)


@settings(deadline=None)
@given(st.integers(2, 40), st.one_of(st.builds(Fraction, sized, sized), powers_of_two))
@example(2, Fraction(1))
@example(40, Fraction(10**299))
@example(3, Fraction(1, 4))
@example(40, Fraction(1, 1 << 39))
def test_steps_for_matches_halving(D, tol):
    assert _steps_for(D, tol.numerator, tol.denominator) == steps_by_halving(D, tol)


# -- derived constants -----------------------------------------------------------


def test_coefficient_d2_closed_form():
    # d_2 = (phi-1)/(3 phi-4) = (5+sqrt 5)/10
    enc = coefficient_d(2, Fraction(1, 10**12))
    lo5, hi5 = sqrt5_bounds(30)
    assert enc.lo <= (5 + hi5) / 10 and (5 + lo5) / 10 <= enc.hi
    assert enc.width <= Fraction(1, 10**12)


def test_coefficient_d_width_shrinks_with_tol():
    widths = [
        coefficient_d(4, Fraction(1, 10**k)).width for k in (6, 9, 12, 15)
    ]
    assert all(w <= Fraction(1, 10**k) for w, k in zip(widths, (6, 9, 12, 15)))
    assert widths == sorted(widths, reverse=True)


def test_coefficient_d_exceeds_half():
    # the bound sandwich needs d > 1/2 so every factor d*alpha^j - 1/2 > 0
    for D in range(2, 13):
        assert coefficient_d(D, Fraction(1, 10**9)).lo > Fraction(1, 2)


def test_limit_constant_depth_one():
    for n, value in [(0, 1), (1, Fraction(1, 2)), (2, Fraction(1, 24)),
                     (3, Fraction(1, 720))]:
        enc = limit_constant("depth_one_2n", n)
        assert enc.lo == enc.hi == value


def test_limit_constant_two_excursions_golden():
    # at D = 2: d^2/(alpha^2 (alpha-1)) = phi/5 = (1+sqrt 5)/10
    lo5, hi5 = sqrt5_bounds(320)
    enc = limit_constant("two_excursions_D", 2)
    narrow = limit_constant("two_excursions_D", 2, Fraction(1, 10**300))
    for e in (enc, narrow):
        assert e.lo <= (1 + hi5) / 10 and (1 + lo5) / 10 <= e.hi
    assert enc.width <= Fraction(1, 10**12)
    assert narrow.width <= Fraction(1, 10**300)


def test_limit_constant_decreasing_in_depth():
    mids = [
        limit_constant("two_excursions_D", D).midpoint() for D in range(2, 11)
    ]
    assert mids == sorted(mids, reverse=True)
    assert mids[-1] < Fraction(1, 10)


def test_limit_constant_validation():
    with pytest.raises(ValueError):
        limit_constant("depth_one_2n", -1)
    with pytest.raises(ValueError):
        limit_constant("two_excursions_D", 1)
    with pytest.raises(ValueError):
        limit_constant("unknown", 2)
    with pytest.raises(ValueError):
        limit_constant("two_excursions_D", 2, 0)


# -- rounded closed form -----------------------------------------------------------


def test_closed_form_count_frozen():
    assert closed_form_count(4, 2) == 5
    assert closed_form_count(0, 2) == 1
    assert closed_form_count(2, 2) == 2
    with pytest.raises(ValueError):
        closed_form_count(3, 1)
    with pytest.raises(ValueError):
        closed_form_count(-1, 2)


def test_closed_form_count_matches_dp():
    for D in range(2, 9):
        for t in range(0, 121):
            assert closed_form_count(t, D) == count_bounded(t, D)


@settings(deadline=None)
@given(st.integers(0, 3000), st.integers(2, 12))
def test_closed_form_matches_dp_property(t, D):
    assert closed_form_count(t, D) == count_bounded(t, D)


#: the largest value whose nearest double is finite lies below this
FLOAT_END = 2**1024 - 2**970


def fifty_digits(num, den):
    """Reference for rounded_ratio beyond the float range: one division
    in a 50-digit decimal context, rounding half up as rounded_ratio does."""
    exact = Context(prec=50, rounding=ROUND_HALF_UP).divide(Decimal(num), Decimal(den))
    return digits_and_exponent(exact)


def digits_and_exponent(value):
    """The significand and exponent of a Decimal, as integers."""
    sign, digits, exponent = value.as_tuple()
    return int("".join(map(str, digits))), exponent


@example(FLOAT_END - 1, 1)
@example(FLOAT_END, 1)
@example(10**400 - 1, 1)  # rounds up to the next power of ten
@example(10**400 + 5 * 10**350, 1)  # a tie, rounded up
@given(st.integers(1, 10**500), st.integers(1, 10**100))
def test_rounded_ratio_is_the_nearest_double_or_fifty_digits(num, den):
    value = rounded_ratio(num, den)
    if num < FLOAT_END * den:
        assert value == float(Fraction(num, den))
    else:
        m, e = digits_and_exponent(value)
        assert (m, e) == fifty_digits(num, den)
        assert 10**49 <= m < 10**50


@example(10**308, math.factorial(308))  # table1 --t 10 --D 2 --n 154 at depth one
@example(10**306, math.factorial(306))  # a subnormal double before
@example(1, 2**1022)  # the least normal double itself
@example(2, 2**1023 + 1)  # just below it, rounding to it
@example(1, 10**10000)
@given(st.integers(1, 10**50), st.integers(1, 10**400))
def test_rounded_ratio_below_the_normal_range_keeps_fifty_digits(num, den):
    exact = Fraction(num, den)
    value = rounded_ratio(num, den)
    if float(exact) >= sys.float_info.min:
        assert value == float(exact)
    else:
        m, e = digits_and_exponent(value)
        assert 10**49 <= m < 10**50
        assert m == math.floor(exact / Fraction(10) ** e + Fraction(1, 2))


def test_growth_approximations():
    assert growth_approximations(20, 2) == (10945.999981728486, 97904.0001634254)
    with pytest.raises(ValueError, match="^D must be"):
        growth_approximations(20, 1)
    with pytest.raises(ValueError, match="^t must be"):
        growth_approximations(-1, 2)


@settings(deadline=None)
@given(st.integers(2, 12), st.integers(1, 200))
def test_solve_alpha_brackets_a_sign_change(D, digits):
    enc = solve_alpha(D, Fraction(1, 10**digits))
    assert plain_p(D, enc.lo) < 0 < plain_p(D, enc.hi)
    assert 0 < enc.hi - enc.lo <= Fraction(1, 10**digits)


@pytest.mark.parametrize("D, digits", [(2, 9), (3, 40), (7, 120), (12, 200)])
def test_solve_alpha_checks_the_signs_once(monkeypatch, D, digits):
    # the bracket certifies the sign change of p_D; solve_alpha builds its
    # enclosure without evaluating p_D again, and the result passes the
    # public constructor's full validation
    calls = []
    scaled_q = spectral._scaled_q

    def counted(*args):
        calls.append(args)
        return scaled_q(*args)

    monkeypatch.setattr(spectral, "_scaled_q", counted)
    tol = Fraction(1, 10**digits)
    _bracket(D, _steps_for(D, tol.numerator, tol.denominator))
    bracket_calls = len(calls)
    assert bracket_calls >= 2  # a sign on each side of alpha_D
    calls.clear()
    enc = solve_alpha(D, tol)
    assert len(calls) == bracket_calls
    assert enc == AlphaEnclosure(D, enc.lo, enc.hi)


def test_precision_exhausted_is_runtime_error():
    assert issubclass(PrecisionExhausted, RuntimeError)


# -- certified bounds ----------------------------------------------------------------


def test_bounds_sandwich_examples():
    lo, hi = bounds_two_excursions(3, 2)
    assert lo <= 1 <= hi
    lo, hi = bounds_two_excursions(20, 2)
    assert lo <= count_exact_excursions(20, 1, 2) <= hi
    assert bounds_two_excursions(2, 2) == (0, 0)
    with pytest.raises(ValueError):
        bounds_two_excursions(0, 2)
    with pytest.raises(ValueError):
        bounds_two_excursions(5, 1)


def test_bounds_sandwich_sweep():
    for D in (2, 3, 4):
        for t in range(1, 81):
            lo, hi = bounds_two_excursions(t, D)
            exact = count_exact_excursions(t, 1, D)
            assert lo <= exact <= hi
            assert isinstance(lo, Fraction) and isinstance(hi, Fraction)


@settings(deadline=None)
@given(st.integers(1, 400), st.integers(2, 12))
def test_bounds_sandwich_property(t, D):
    lo, hi = bounds_two_excursions(t, D)
    assert lo <= count_exact_excursions(t, 1, D) <= hi


def test_bounds_range_matches_single_t():
    # ranges that start below D + 1, start mid-depth, cross the depth
    # changes at t = 63 and 191, and are empty
    for D, t_lo, t_hi in ((2, 1, 200), (5, 150, 260), (3, 70, 69)):
        rows = list(bounds_two_excursions_range(t_lo, t_hi, D))
        assert rows == [
            (t, *bounds_two_excursions(t, D)) for t in range(t_lo, t_hi + 1)
        ]
    with pytest.raises(ValueError):
        list(bounds_two_excursions_range(0, 5, 2))
    with pytest.raises(ValueError):
        list(bounds_two_excursions_range(1, 5, 1))


@settings(deadline=None)
@given(st.integers(1, (1 << 64) - 1), st.integers(1, 1 << 64), st.integers(0, 40))
@example(1, 1 << 64, 40)  # alpha just above 1
@example((1 << 64) - 1, 1, 0)  # alpha just below 2, N = 0
def test_excursion_terms_enclose_the_sums(a, b, n_terms):
    # independent of both the closed forms and a running sum: on point
    # intervals alpha = 1 + a/2^64 and d = b/2^64, the two sums, added up
    # term by term in exact rationals, lie in the intervals of terms
    k = 64
    alpha, d = _Dyadic((1 << k) + a, (1 << k) + a, k), _Dyadic(b, b, k)
    x, y = Fraction(alpha.lo, 1 << k), Fraction(b, 1 << k)
    powers = [x**u for u in range(n_terms + 1)]
    s1 = y * y * sum((u + 1) * power for u, power in enumerate(powers))
    s2 = y * sum(sum(powers[: u + 1]) for u in range(n_terms + 1))
    terms = _excursion_terms(alpha, d)(n_terms, alpha ** (n_terms + 1))
    assert encloses(terms[0], s1) and encloses(terms[1], s2)


def test_bounds_match_naive_double_sum():
    # independent route: evaluate the two double sums termwise in 50-digit
    # floating point and compare
    for D in (2, 3):
        with mpmath.workdps(50):
            enc = solve_alpha(D, Fraction(1, 10**40))
            alpha = mpmath.mpf(enc.lo.numerator) / enc.lo.denominator
            d = (alpha - 1) / (2 + (D + 1) * (alpha - 2))
            for t in range(1, 61):
                low = high = mpmath.mpf(0)
                for r in range(D + 1, t + 1):
                    for k in range(1, t - r + 2):
                        f1 = d * alpha ** (k - 1)
                        f2 = d * alpha ** (t - k - r + 1)
                        low += (f1 - 0.5) * (f2 - 0.5)
                        high += (f1 + 0.5) * (f2 + 0.5)
                lo, hi = bounds_two_excursions(t, D)
                assert abs(float(lo) - float(low)) <= 1e-6 * max(1.0, float(low))
                assert abs(float(hi) - float(high)) <= 1e-6 * max(1.0, float(high))


def test_bounds_relative_gap_shrinks():
    # both bounds are ~ t alpha^t, so their ratio to the exact count tends
    # to 1; check the trend on a coarse grid
    gaps = []
    for t in (50, 100, 200):
        lo, hi = bounds_two_excursions(t, 2)
        exact = count_exact_excursions(t, 1, 2)
        gaps.append(float((hi - lo) / exact))
    assert gaps == sorted(gaps, reverse=True)


# -- term diagnostics -----------------------------------------------------------------


def test_term_report_shape_and_zero_rows():
    rep = excursion_term_report(2, 10)
    assert rep.D == 2 and rep.t_max == 10
    assert len(rep.rows) == 10
    assert rep.rows[0] == (1, 0.0, 0.0, 0.0)  # t <= D has no admissible r
    assert rep.rows[1][0] == 2 and rep.rows[1][1] == 0.0
    assert rep.rows[3][1] > 0


def test_term_report_limit_matches_certified():
    for D in (2, 3, 5):
        rep = excursion_term_report(D, 5)
        enc = limit_constant("two_excursions_D", D)
        assert abs(rep.term1_limit - float(enc.midpoint())) <= 1e-12


def test_term_ratio1_converges():
    rep = excursion_term_report(2, 200)
    final = rep.rows[-1][1]
    assert abs(final - rep.term1_limit) <= 0.05 * rep.term1_limit
    # convergence is O(1/t): errors shrink along a doubling grid
    errs = [abs(rep.rows[t - 1][1] - rep.term1_limit) for t in (50, 100, 200)]
    assert errs == sorted(errs, reverse=True)


def test_term_ratios_two_and_three_agree_and_stay_bounded():
    # the two cross sums are mirror images, so their ratios coincide up to
    # the working precision; both stay bounded (they are O(alpha^t))
    rep = excursion_term_report(2, 400)
    for t, _, r2, r3 in rep.rows:
        assert abs(r2 - r3) <= 1e-9 * max(1.0, abs(r2))
        assert r2 < 2.0 and r3 < 2.0
    tail = max(row[2] for row in rep.rows[300:])
    head = max(row[2] for row in rep.rows[:300])
    assert tail <= head * (1 + 1e-9)


def _nearest(x):
    """The double nearest the mpf x."""
    return float(Fraction(int(x.man)) * Fraction(2) ** int(x.exp))


@pytest.mark.parametrize("D, t_max", [(2, 120), (3, 90)])
def test_term_report_matches_naive_double_sum(D, t_max):
    # independent route: sum the three terms cell by cell over the
    # positional double sum in 50-digit floating point, where cell (r, k)
    # has f1 = d alpha^(k-1) and f2 = d alpha^(t-k-r+1); term1 sums f1 f2,
    # term2 sums f2 and term3 sums f1.  Rounded to doubles, they equal the
    # report's rows.
    rows = excursion_term_report(D, t_max).rows
    with mpmath.workdps(50):
        mid = solve_alpha(D, Fraction(1, 10**45)).midpoint()
        alpha = mpmath.mpf(mid.numerator) / mid.denominator
        d = (alpha - 1) / (2 + (D + 1) * (alpha - 2))
        powers = [alpha**j for j in range(t_max + 1)]
        f = [d * power for power in powers]
        for t in range(1, t_max + 1):
            term1 = term2 = term3 = mpmath.mpf(0)
            for r in range(D + 1, t + 1):
                for k in range(1, t - r + 2):
                    f1, f2 = f[k - 1], f[t - k - r + 1]
                    term1 += f1 * f2
                    term2 += f2
                    term3 += f1
            expected = (t, _nearest(term1 / (t * powers[t])),
                        _nearest(term2 / powers[t]), _nearest(term3 / powers[t]))
            assert rows[t - 1] == expected


def test_term_report_validation():
    with pytest.raises(ValueError):
        excursion_term_report(1, 10)
    with pytest.raises(ValueError):
        excursion_term_report(2, 0)


def test_constant_enclosure_validation():
    with pytest.raises(ValueError):
        ConstantEnclosure(Fraction(1), Fraction(0))
