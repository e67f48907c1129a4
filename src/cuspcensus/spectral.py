"""Certified numerics for the growth rate of bounded compositions.

For D >= 2 the counts |C_{t,D}| grow like d_D * alpha_D^t, where alpha_D
is the unique positive root of

    p_D(z) = z^D - z^{D-1} - ... - z - 1

and d_D = (alpha_D - 1)/(2 + (D+1)(alpha_D - 2)).  Remarkably the rounded
value rnd(d_D * alpha_D^t), rnd(x) = floor(x + 1/2), reproduces the exact
integer count.  Everything in this module that feeds such exact claims is
computed with certified enclosures of one kind, ``_Dyadic``: a real x is
held as integers lo <= x * 2^k <= hi, and every operation rounds outward.

- alpha_D is bracketed by [m, m+1]/2^K, the bracket that K-D+1
  bisection steps would reach.  m = floor(alpha_D 2^K) is found by
  Newton's method on q(z) = (z - 1) p_D(z) = z^D (z - 2) + 1 in fixed
  point, one step per doubling of the precision, and certified by the
  signs of the integers 2^(K(D+1)) q(m/2^K) < 0 < 2^(K(D+1)) q((m+1)/2^K),
  each m^D (m - 2^(K+1)) + 2^(K(D+1)) for its m.
  At tolerance p/q, solve_alpha takes s = max(1, bitlen(floor((q-1)/p))
  - D + 2) steps, the least s >= 1 with width 2^-(D+s-2) <= p/q.
- d_D, d_D * alpha_D^t, the two-excursion limit constant and bounds
  are interval expressions in that bracket, read 64 bits below its
  grid.  ``_refine`` doubles the bisection depth until one is
  certified.  The hot loop, binary powering, runs on plain integers
  with every product rounded outward; the geometric sums of the bounds
  are closed forms in one power of alpha_D.
- ``_rounded`` refines one until both of its ends round to one value:
  the nearest integer, or by rounded_ratio a double or RATIO_DPS digits.

The only state kept between calls is a fixed number of recent
enclosures of alpha_D and d_D.  No floating point enters any certified
path, and precision is decided on integers: Fractions are built only
for returned values.

The diagnostic term report at the bottom tracks the sums behind the
two-excursion asymptotics on the same intervals as the bounds, and
certifies nothing: each of its floats is one correctly rounded division
of two interval midpoints.

D = 1 is excluded throughout: p_1(z) = z - 1 forces alpha_1 = 1 and
d_1 = 0, so the closed form degenerates (|C_{t,1}| = 1, not rnd(0)).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterator, Optional, TypeVar, Union

from ._contract import Value, check_least

RationalLike = Union[int, Fraction]
_T = TypeVar("_T")

# guard bits past the bisection depth (closed forms) or the bracket's grid
_GUARD_BITS = 64


class PrecisionExhausted(RuntimeError):
    """Interval refinement hit its iteration cap; indicates a bug or a
    genuinely ambiguous rounding, not a recoverable condition."""


class _Dyadic:
    """The closed interval [lo, hi]/2^k of reals, lo <= hi integers.

    The operands of +, -, * and / share the scale k, or are ints, each
    the exact point it names.  Every result is rounded outward to the
    grid of multiples of 2^-k, so it contains every pointwise result;
    x ** t (for lo >= 0) is binary powering with each product rounded
    outward.  Instances are never changed after construction: cached
    ones are shared.
    """

    __slots__ = ("lo", "hi", "k")

    def __init__(self, lo: int, hi: int, k: int):
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]/2^{k}")
        self.lo, self.hi, self.k = lo, hi, k

    def _ends(self, other: Union[_Dyadic, int]) -> tuple[int, int]:
        """The endpoints of other over 2^k."""
        if isinstance(other, int):
            point = other << self.k
            return point, point
        if other.k != self.k:
            raise ValueError(f"scales 2^-{self.k} and 2^-{other.k} differ")
        return other.lo, other.hi

    def enclosure(self) -> ConstantEnclosure:
        unit = 1 << self.k
        return ConstantEnclosure(Fraction(self.lo, unit), Fraction(self.hi, unit))

    def __add__(self, other: Union[_Dyadic, int]) -> _Dyadic:
        lo, hi = self._ends(other)
        return _Dyadic(self.lo + lo, self.hi + hi, self.k)

    def __sub__(self, other: Union[_Dyadic, int]) -> _Dyadic:
        lo, hi = self._ends(other)
        return _Dyadic(self.lo - hi, self.hi - lo, self.k)

    def __mul__(self, other: Union[_Dyadic, int]) -> _Dyadic:
        if isinstance(other, int):  # exact
            ends = self.lo * other, self.hi * other
            return _Dyadic(min(ends), max(ends), self.k)
        lo, hi = self._ends(other)
        if self.lo >= 0 and lo >= 0:
            low, high = self.lo * lo, self.hi * hi
        else:
            products = self.lo * lo, self.lo * hi, self.hi * lo, self.hi * hi
            low, high = min(products), max(products)
        return _Dyadic(low >> self.k, -(-high >> self.k), self.k)

    def __truediv__(self, other: Union[_Dyadic, int]) -> _Dyadic:
        lo, hi = self._ends(other)
        if lo <= 0 <= hi:
            raise ZeroDivisionError("divisor interval contains zero")
        if self.lo >= 0 and lo > 0:
            low, high = self.lo << self.k, self.hi << self.k
            return _Dyadic(low // hi, -(-high // lo), self.k)
        # floor and remainder of each endpoint quotient, times 2^k
        quotients = [divmod(a << self.k, b) for a in (self.lo, self.hi) for b in (lo, hi)]
        low = min(q for q, _ in quotients)
        high = max(q + (r != 0) for q, r in quotients)
        return _Dyadic(low, high, self.k)

    def __pow__(self, t: int) -> _Dyadic:
        if self.lo < 0:
            raise ValueError("powers are taken of nonnegative intervals only")
        low = _power(self.lo, t, self.k, False)
        return _Dyadic(low, _power(self.hi, t, self.k, True), self.k)


class AlphaEnclosure(Value):
    """A bisection bracket for the growth rate alpha_D.

    Self-validating: construction rechecks the sign change of p_D and the
    a-priori bounds 2(1 - 2^-D) <= lo < hi < 2.
    """

    __slots__ = ("D", "lo", "hi")

    def __init__(self, D: int, lo: Fraction, hi: Fraction):
        check_least(D=(D, 2))
        if not Fraction(2) - Fraction(1, 1 << (D - 1)) <= lo < hi < 2:
            raise ValueError("enclosure violates the a-priori bracket")
        below, above = (_scaled_q(D, z.numerator, z.denominator) for z in (lo, hi))
        if not below < 0 < above:
            raise ValueError("enclosure does not bracket the root")
        self._set(D, lo, hi)

    def _set(self, D: int, lo: Fraction, hi: Fraction) -> None:
        """Set the fields, past the immutable __setattr__ and unchecked."""
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


class ConstantEnclosure(Value):
    """Exact rational bounds lo <= c <= hi for a derived constant."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError(f"empty enclosure [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def _scaled_q(D: int, num: int, den: int) -> int:
    """den^(D+1) q(num/den) = num^D (num - 2 den) + den^(D+1), exactly, for
    q(z) = z^D (z - 2) + 1 = (z - 1) p_D(z): for num/den > 1 its sign is
    the sign of p_D(num/den)."""
    shift = den.bit_length() - 1
    # a power of two den is a shift, much cheaper than a power
    top = 1 << shift * (D + 1) if den == 1 << shift else den ** (D + 1)
    return num**D * (num - 2 * den) + top


# guard bits of the Newton iteration's fixed point, past the bracket's grid
_NEWTON_GUARD_BITS = 32

# units of 2^-K that the certificate may walk from the Newton candidate
_WALK_LIMIT = 8


def _alpha_candidate(D: int, k: int) -> int:
    """An integer within a few units of alpha_D * 2^k.

    Newton's method on q(z) = z^D (z - 2) + 1 from z = 2, whose first
    step, to 2 - 2^-D, is exact and taken here in closed form.  That
    iterate is within D 2^-(2D+1) (1 + o(1)) of alpha_D: it has
    b = max(1, 2(D - bitlen(D))) correct bits, and more than log2(D)
    to spare, so that each Newton step, which about doubles the correct
    bits, stays ahead of b when it takes b to 2b + 1, up to k.  The step
    works in fixed point over 2^w, w = b + 32: it evaluates q and
    q'(z) = z^(D-1) ((D+1) z - 2D) from z^(D-1), by D - 2 products, each
    truncated to w bits.  Nothing here is certified: _bracket certifies
    what it returns.
    """
    z, w = (2 << D) - 1, D
    bits = 2 * (D - D.bit_length()) or 1
    products = range(D - 2)
    while bits < k:
        bits = 2 * bits + 1 if 2 * bits + 1 < k else k
        v = bits + _NEWTON_GUARD_BITS
        z <<= v - w
        w = v
        power = z  # z^(D-1) over 2^w
        for _ in products:
            power = power * z >> w
        # with t = z - 2: 2^(3w) q(z) = power z t + 2^(3w) over
        # 2^(2w) q'(z) = power (z + D t)
        t = z - (2 << w)
        z -= (power * z * t + (1 << 3 * w)) // (power * (z + D * t))
    return z >> (w - k) if w > k else z << (k - w)


def _bracket(D: int, steps: int) -> tuple[int, int]:
    """Bracket after exactly `steps` bisections from [2 - 2^{1-D}, 2], as
    integers over 2^K, K = D-1+steps.

    Every bisection endpoint lies on the grid of multiples of 2^-K and
    alpha_D is irrational, so that bracket is [m, m+1]/2^K with
    m = floor(alpha_D * 2^K).  A fixed-point Newton iteration lands within
    a few units of m.  The walk from there to m is certified by the exact
    signs of p_D at both ends, p_D(m/2^K) < 0 < p_D((m+1)/2^K), read from
    _scaled_q: a pure function of (D, steps), so determinism is exact, not
    just up to tolerance.  A walk of more than _WALK_LIMIT units raises
    RuntimeError.
    """
    check_least(D=(D, 2), steps=(steps, 1))
    k = D - 1 + steps
    unit = 1 << k
    m = _alpha_candidate(D, k)
    # above 1, q has the sign of p_D, which changes sign only at alpha_D
    # and is never 0 on the grid: its only candidate rational roots are +-1
    if m > unit:
        below = _scaled_q(D, m, unit) < 0
        step = 1 if below else -1
        for _ in range(_WALK_LIMIT):
            if (_scaled_q(D, m + step, unit) < 0) != below:
                return (m, m + 1) if below else (m - 1, m)
            m += step
    raise RuntimeError(f"Newton candidate for alpha_{D} * 2^{k} is not within "
                       f"{_WALK_LIMIT} units of it above 1")


# a fixed number of enclosures is kept, enough for the closed forms of a
# session, whose nearby t share one
@functools.lru_cache(maxsize=256)
def _enclosures(D: int, steps: int, k: int) -> tuple[_Dyadic, _Dyadic]:
    """alpha_D, the bracket after `steps` bisections over 2^k, rounded
    outward, and d_D = (alpha - 1)/(2 + (D+1)(alpha - 2)) on it.

    The denominator of d_D, (D+1) alpha - 2D, is positive on the bracket:
    at alpha = 2 - 2^{1-D} it equals 2 - (D+1) 2^{1-D} > 0.
    """
    lo, hi = _bracket(D, steps)
    shift = D - 1 + steps - k
    alpha = _Dyadic(_rescale(lo, shift, False), _rescale(hi, shift, True), k)
    return alpha, (alpha - 1) / (alpha * (D + 1) - 2 * D)


def _refine(
    D: int,
    steps: int,
    guard: int,
    evaluate: Callable[[_Dyadic, _Dyadic], Optional[_T]],
    failure: Optional[str] = None,
) -> _T:
    """The first result of evaluate(alpha, d) that is not None, for the
    enclosures of alpha_D and d_D after steps, 2 steps, 4 steps, ...
    bisections, each over 2^(steps + guard).

    Given a failure message, it gives up after eight depths and raises
    PrecisionExhausted with it; without one, it does not give up.
    """
    for _ in itertools.count() if failure is None else range(8):
        result = evaluate(*_enclosures(D, steps, steps + guard))
        if result is not None:
            return result
        steps *= 2
    raise PrecisionExhausted(failure)


def _tolerance(tol: RationalLike) -> tuple[int, int]:
    """(p, q) for the tolerance p/q in lowest terms, checked positive."""
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return tol.numerator, tol.denominator


def _steps_for(D: int, p: int, q: int) -> int:
    """The least s >= 1 bisections with width 2^-(D+s-2) <= p/q."""
    return max(1, ((q - 1) // p).bit_length() - D + 2)


def solve_alpha(D: int, tol: RationalLike = Fraction(1, 10**12)) -> AlphaEnclosure:
    """Certified enclosure of alpha_D, of width at most tol.

    >>> a = solve_alpha(2, Fraction(1, 10**9))
    >>> golden = (1 + Fraction(math.isqrt(5 * 10**40), 10**20)) / 2
    >>> a.lo < golden < a.hi and a.hi - a.lo <= Fraction(1, 10**9)
    True
    """
    check_least(D=(D, 2))
    steps = _steps_for(D, *_tolerance(tol))
    lo, hi = _bracket(D, steps)
    unit = 1 << (D - 1 + steps)
    # _bracket has just certified the signs that AlphaEnclosure(...) would
    # test again, so the slots are set without its checks
    enclosure = object.__new__(AlphaEnclosure)
    enclosure._set(D, Fraction(lo, unit), Fraction(hi, unit))
    return enclosure


def _narrowed(
    D: int, tol: RationalLike, constant: Callable[[_Dyadic, _Dyadic], _Dyadic]
) -> ConstantEnclosure:
    """The enclosure of constant(alpha, d), refined from 64 bisection steps
    until its width is at most tol, with no cap on the depth."""
    p, q = _tolerance(tol)

    def narrow(alpha: _Dyadic, d: _Dyadic) -> Optional[_Dyadic]:
        x = constant(alpha, d)
        return x if (x.hi - x.lo) * q <= p << x.k else None  # width <= p/q

    return _refine(D, 64, D - 1 + _GUARD_BITS, narrow).enclosure()


def coefficient_d(D: int, tol: RationalLike = Fraction(1, 10**12)) -> ConstantEnclosure:
    """Certified enclosure of d_D = (alpha_D - 1)/(2 + (D+1)(alpha_D - 2)).

    >>> d = coefficient_d(2, Fraction(1, 10**9))
    >>> round(float(d.midpoint()), 9)
    0.723606798
    """
    check_least(D=(D, 2))
    return _narrowed(D, tol, lambda alpha, d: d)


def _quantized_steps(t: int) -> int:
    """Bisection depth for working at height alpha^t: generous, and
    quantized so nearby heights share one bracket."""
    return 128 * ((t + 65 + 127) // 128)


def _rescale(n: int, shift: int, up: bool) -> int:
    """n / 2^shift, rounded down, or up when `up`; exact when shift <= 0."""
    if shift <= 0:
        return n << -shift
    return -(-n >> shift) if up else n >> shift


def _power(base: int, t: int, bits: int, up: bool) -> int:
    """base^t for base >= 0 an integer over 2^bits, by binary powering with
    every product rounded down, or up when `up`."""
    acc = 1 << bits
    while True:
        if t & 1:
            acc = _rescale(acc * base, bits, up)
        t >>= 1
        if not t:
            return acc
        base = _rescale(base * base, bits, up)


#: significant decimal digits of an approximation beyond the float range
RATIO_DPS = 50

Approximation = Union[float, Decimal]


def rounded_ratio(num: int, den: int) -> Approximation:
    """num/den > 0 as the nearest double or, beyond the normal float range,
    as the Decimal m * 10^e, its nearest value of RATIO_DPS significant
    digits, a tie rounded up.  A double below sys.float_info.min keeps
    fewer significant bits, so a quotient whose nearest double lies there
    is a Decimal too, with e < 0."""
    with contextlib.suppress(OverflowError):
        if (q := num / den) >= sys.float_info.min:
            return q  # int/int division is correctly rounded
    # num/den > 2^b, and b * log10(2) >= b * 1233/4096 for b >= 0 and
    # >= b * 1234/4096 for b < 0, so e starts below the least power of ten
    # that rounds num/den to RATIO_DPS digits, and rises to it
    b = num.bit_length() - den.bit_length() - 1
    e = (b * (1233 if b >= 0 else 1234) >> 12) - RATIO_DPS
    while True:
        # m = floor(num / (den * 10^e) + 1/2), on integers
        a, c = (num, den * 10**e) if e >= 0 else (num * 10**-e, den)
        if (m := (2 * a + c) // (2 * c)) < 10**RATIO_DPS:
            return Decimal(f"{m}e{e}")
        e += 1


def _rounded(D: int, t: int, label: str, value: Callable[[_Dyadic, _Dyadic], _Dyadic],
             rounding: Callable[[int, int], _T]) -> _T:
    """rounding(lo, k) for the enclosure [lo, hi]/2^k of value(alpha, d),
    refined from the depth for height alpha^t until rounding(hi, k) agrees."""

    def rounded(alpha: _Dyadic, d: _Dyadic) -> Optional[_T]:
        x = value(alpha, d)
        r = rounding(x.lo, x.k)
        return r if r == rounding(x.hi, x.k) else None

    return _refine(D, _quantized_steps(t), _GUARD_BITS, rounded,
                   f"rounding of {label} stayed ambiguous at t={t}, D={D}")


def closed_form_count(t: int, D: int) -> int:
    """The rounded closed form rnd(d_D * alpha_D^t), computed with proof.

    The enclosure of d_D * alpha_D^t is refined until floor(x + 1/2) takes
    one value on all of it; that unique integer is returned.  It must
    equal count_bounded(t, D); the match is a theorem, not an
    implementation artifact, which is why the two are computed by
    unrelated routes.

    >>> closed_form_count(4, 2)
    5
    >>> closed_form_count(0, 2)
    1
    """
    check_least(t=(t, 0), D=(D, 2))
    return _rounded(D, t, "d*alpha^t", lambda alpha, d: d * alpha**t,
                    lambda n, k: (n + (1 << (k - 1))) >> k)


def growth_approximations(t: int, D: int) -> tuple[Approximation, Approximation]:
    """d_D * alpha_D^t and the two-excursion limit constant times
    t * alpha_D^t, each as rounded_ratio rounds it, with proof."""
    check_least(t=(t, 0), D=(D, 2))

    def ratio(n: int, k: int) -> Approximation:
        return rounded_ratio(n, 1 << k)

    return (
        _rounded(D, t, "d*alpha^t", lambda alpha, d: d * alpha**t, ratio),
        _rounded(D, t, "limit*t*alpha^t",
                 lambda alpha, d: _two_excursion_limit(D, alpha, d) * t * alpha**t, ratio),
    )


def limit_constant(
    kind: str, parameter: int, tol: RationalLike = Fraction(1, 10**12)
) -> ConstantEnclosure:
    """Certified enclosure of an asymptotic limit constant.

    kind "two_excursions_D" with parameter D: the constant
    d_D^2/(alpha_D^D (alpha_D - 1)) governing counts with one part > D,
    of width at most tol.
    kind "depth_one_2n" with parameter n: the constant 1/(2n)! governing
    depth-1 counts with n parts > 1; exact, so a zero-width enclosure.
    """
    if kind == "depth_one_2n":
        n = parameter
        check_least(n=(n, 0))
        return ConstantEnclosure(*[Fraction(1, math.factorial(2 * n))] * 2)
    if kind == "two_excursions_D":
        D = parameter
        check_least(D=(D, 2))
        return _narrowed(D, tol, functools.partial(_two_excursion_limit, D))
    raise ValueError(f"unknown limit kind {kind!r}")


def _two_excursion_limit(D: int, alpha: _Dyadic, d: _Dyadic) -> _Dyadic:
    """d_D^2/(alpha_D^D (alpha_D - 1)) on the enclosures alpha and d."""
    return d * d / (alpha**D * (alpha - 1))


def bounds_two_excursions(t: int, D: int) -> tuple[Fraction, Fraction]:
    """Certified rationals sandwiching the count of compositions of t with
    exactly one part bigger than D.

    Substituting |C_{s,D}| in (d alpha^s - 1/2, d alpha^s + 1/2] into the
    positional product formula gives, summed over admissible positions,

        sum (d alpha^{k-1} -+ 1/2)(d alpha^{t-k-r+1} -+ 1/2)

    as a strict lower and a weak upper estimate.  Both are evaluated here
    as interval enclosures; the returned pair is (lower.lo, upper.hi), so
    the sandwich survives the rounding of the evaluation itself.
    """
    check_least(t=(t, 1), D=(D, 2))
    ((_, lower, upper),) = _bounds_range(t, t, D)
    return lower, upper


def bounds_two_excursions_range(
    t_lo: int, t_hi: int, D: int
) -> Iterator[tuple[int, Fraction, Fraction]]:
    """(t, lower, upper) for t = t_lo..t_hi, each pair as
    bounds_two_excursions(t, D) returns it.

    The t that share a bisection depth, 128 consecutive values, share one
    enclosure of alpha_D and d_D; each t then costs one power of alpha_D
    and a fixed number of interval operations, in memory O(1) per t.  The
    arguments are checked at the call, before any bound is read.
    """
    check_least(t_lo=(t_lo, 1), D=(D, 2))
    return _bounds_range(t_lo, t_hi, D)


def _excursion_terms(alpha: _Dyadic, d: _Dyadic) -> Callable[[int, _Dyadic], tuple]:
    """The two sums of the two-excursion count as a function of N and of
    power = alpha^(N+1), in closed form; sums run over u = 0..N:

        s1 = d^2 sum (u+1) alpha^u            (the dominant term)
           = (d/(alpha-1))^2 (power ((N+1) alpha - (N+2)) + 1)
        s2 = d sum G(u), G(u) = sum_{i<=u} alpha^i
           = d alpha (power - 1)/(alpha-1)^2 - d (N+1)/(alpha-1)

    s2 is the geometric part of either factor of a cell: the left and the
    right factors run over the same powers.
    """
    ratio = d / (alpha - 1)
    squared, cross = ratio * ratio, ratio * alpha / (alpha - 1)

    def terms(n_terms: int, power: _Dyadic) -> tuple[_Dyadic, _Dyadic]:
        s1 = squared * (power * (alpha * (n_terms + 1) - (n_terms + 2)) + 1)
        return s1, cross * (power - 1) - ratio * (n_terms + 1)

    return terms


def _bounds_range(t_lo: int, t_hi: int, D: int) -> Iterator[tuple[int, Fraction, Fraction]]:
    depth = None
    for t in range(t_lo, t_hi + 1):
        n_terms = t - D - 1  # largest u = t - r
        if n_terms < 0:
            yield t, Fraction(0), Fraction(0)
            continue
        if _quantized_steps(t) != depth:
            depth = _quantized_steps(t)
            k = depth + _GUARD_BITS
            alpha, d = _enclosures(D, depth, k)
            terms = _excursion_terms(alpha, d)
        s1, half = terms(n_terms, alpha ** (n_terms + 1))
        # s4 = (N+1)(N+2)/8, the constant 1/4 per cell, exact over 2^k
        s4 = (n_terms + 1) * (n_terms + 2) << (k - 3)
        lower, upper = (s1 - half).lo + s4, (s1 + half).hi + s4
        yield t, Fraction(lower, 1 << k), Fraction(upper, 1 << k)


class TermReport(Value):
    """Diagnostic growth ratios of the three sums behind the two-excursion
    asymptotics.

    rows holds (t, ratio1, ratio2, ratio3) where ratio1 = term1/(t alpha^t)
    approaches term1_limit, and ratio2, ratio3 divide the two geometric
    cross terms by alpha^t (they stay bounded; only term1 carries the
    leading t alpha^t growth).  The cross terms sum the left and the right
    factors over the same powers, so ratio2 and ratio3 are one value.
    """

    __slots__ = ("D", "t_max", "term1_limit", "rows")

    def __init__(self, D: int, t_max: int, term1_limit: float,
                 rows: tuple[tuple[int, float, float, float], ...]):
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "t_max", t_max)
        object.__setattr__(self, "term1_limit", term1_limit)
        object.__setattr__(self, "rows", rows)


_REPORT_STEPS = 128  # bisection depth of the term report


def excursion_term_report(D: int, t_max: int) -> TermReport:
    """Tabulate the three term ratios for t = 1..t_max; diagnostic only.

    The terms are those of _excursion_terms, and alpha^t and alpha^(t-D)
    are running products, on the enclosures of alpha_D and d_D after 128
    bisection steps, over 2^(128 + 64).
    Each float is one correctly rounded division of interval midpoints.
    Relative widths stay below about t 2^-127, so it is the double nearest
    the true ratio unless that ratio lies that close to a rounding tie.
    A row costs a fixed number of interval operations, but the integers
    grow like alpha^t, so the cost is quadratic in t_max: at D = 2 on one
    Xeon core, 0.03 s at t_max = 2000 and 4 s at 50 000.
    """
    check_least(D=(D, 2), t_max=(t_max, 1))
    k = _REPORT_STEPS + _GUARD_BITS
    alpha, d = _enclosures(D, _REPORT_STEPS, k)
    limit = _two_excursion_limit(D, alpha, d)
    terms = _excursion_terms(alpha, d)
    rows = []
    power = lead = alpha  # alpha^t, and alpha^(t-D) from t = D+1 on
    for t in range(1, t_max + 1):
        if t <= D:  # no admissible run length
            rows.append((t, 0.0, 0.0, 0.0))
        else:
            s1, s2 = (x.lo + x.hi for x in terms(t - D - 1, lead))
            scale = power.lo + power.hi
            rows.append((t, s1 / (t * scale), s2 / scale, s2 / scale))
            lead = lead * alpha
        power = power * alpha
    return TermReport(D, t_max, (limit.lo + limit.hi) / (2 << k), tuple(rows))
