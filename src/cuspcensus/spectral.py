"""Certified numerics for the growth rate of bounded compositions.

For D >= 2 the counts |C_{t,D}| grow like d_D * alpha_D^t, where alpha_D
is the unique positive root of

    p_D(z) = z^D - z^{D-1} - ... - z - 1

and d_D = (alpha_D - 1)/(2 + (D+1)(alpha_D - 2)).  Remarkably the rounded
value rnd(d_D * alpha_D^t), rnd(x) = floor(x + 1/2), reproduces the exact
integer count.  Everything in this module that feeds such exact claims is
computed with certified enclosures: exact-rational bisection for alpha_D,
and outward-rounded interval arithmetic on top of it.  No floating point
enters any certified path.

The one exception is the diagnostic term report at the bottom, which
tracks the three sums controlling the two-excursion asymptotics; it runs
at a documented 64-digit working precision and certifies nothing.

D = 1 is excluded throughout: p_1(z) = z - 1 forces alpha_1 = 1 and
d_1 = 0, so the closed form degenerates (|C_{t,1}| = 1, not rnd(0)).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import mpmath

from .compositions import count_bounded

RationalLike = Union[int, Fraction]

#: working precision, decimal digits, for the diagnostic term report
REPORT_DPS = 64

_HALF = Fraction(1, 2)

_lock = threading.RLock()

# (D, steps) -> (lo, hi) after exactly `steps` bisection steps
_alpha_cache: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}

# (D, steps) -> list of outward-rounded interval powers of alpha
_power_cache: dict[tuple[int, int], list] = {}

# (D, steps) -> incremental geometric sums for the two-excursion bounds:
# lists G, W, GG with G[N] = sum alpha^u, W[N] = sum (u+1) alpha^u,
# GG[N] = sum_{u<=N} G[u], all over u = 0..N, as intervals
_sum_cache: dict[tuple[int, int], tuple[list, list, list]] = {}


class PrecisionExhausted(RuntimeError):
    """Interval refinement hit its iteration cap; indicates a bug or a
    genuinely ambiguous rounding, not a recoverable condition."""


@dataclass(frozen=True)
class RatInterval:
    """A closed interval with exact rational endpoints.

    Arithmetic returns intervals containing every pointwise result, so any
    quantity propagated through RatInterval operations carries a proof of
    its enclosure.  ``outward`` widens to dyadic endpoints of bounded size,
    trading tightness for speed.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x: RationalLike) -> RatInterval:
        x = Fraction(x)
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __contains__(self, x: RationalLike) -> bool:
        return self.lo <= Fraction(x) <= self.hi

    def __add__(self, other: RatInterval) -> RatInterval:
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: RatInterval) -> RatInterval:
        return RatInterval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: RatInterval) -> RatInterval:
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RatInterval(min(products), max(products))

    def __truediv__(self, other: RatInterval) -> RatInterval:
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("divisor interval contains zero")
        quotients = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return RatInterval(min(quotients), max(quotients))

    def scale(self, c: RationalLike) -> RatInterval:
        c = Fraction(c)
        if c >= 0:
            return RatInterval(self.lo * c, self.hi * c)
        return RatInterval(self.hi * c, self.lo * c)

    def shift(self, c: RationalLike) -> RatInterval:
        c = Fraction(c)
        return RatInterval(self.lo + c, self.hi + c)

    def outward(self, bits: int) -> RatInterval:
        """Round lo down and hi up to multiples of 2^-bits."""
        unit = 1 << bits
        return RatInterval(
            Fraction(math.floor(self.lo * unit), unit),
            Fraction(math.ceil(self.hi * unit), unit),
        )


@dataclass(frozen=True)
class AlphaEnclosure:
    """A bisection bracket for the growth rate alpha_D.

    Self-validating: construction rechecks the sign change of p_D and the
    a-priori bounds 2(1 - 2^-D) <= lo < hi < 2.
    """

    D: int
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.D < 2:
            raise ValueError(f"D must be >= 2, got {self.D}")
        if not Fraction(2) - Fraction(1, 1 << (self.D - 1)) <= self.lo < self.hi < 2:
            raise ValueError("enclosure violates the a-priori bracket")
        if not (poly_value(self.D, self.lo) < 0 < poly_value(self.D, self.hi)):
            raise ValueError("enclosure does not bracket the root")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def interval(self) -> RatInterval:
        return RatInterval(self.lo, self.hi)


@dataclass(frozen=True)
class ConstantEnclosure:
    """Exact rational bounds lo <= c <= hi for a derived constant."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty enclosure [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def poly_value(D: int, z: RationalLike) -> Fraction:
    """Exact value of p_D(z) = z^D - z^{D-1} - ... - z - 1 by Horner."""
    z = Fraction(z)
    acc = Fraction(1)
    for _ in range(D):
        acc = acc * z - 1
    return acc


def _bisect(D: int, steps: int) -> tuple[Fraction, Fraction]:
    """Bracket after exactly `steps` bisections from [2 - 2^{1-D}, 2].

    The trajectory is a pure function of (D, steps), so cached prefixes can
    be extended without changing any endpoint: determinism is exact, not
    just up to tolerance.
    """
    if steps < 1:
        raise ValueError("at least one bisection step is required")
    with _lock:
        cached = _alpha_cache.get((D, steps))
        if cached is not None:
            return cached
        done = max((s for (d, s) in _alpha_cache if d == D and s < steps), default=0)
        if done:
            lo, hi = _alpha_cache[(D, done)]
        else:
            lo, hi = Fraction(2) - Fraction(1, 1 << (D - 1)), Fraction(2)
        for _ in range(done, steps):
            mid = (lo + hi) / 2
            # p_D(mid) = 0 cannot occur: the only candidate rational roots
            # of p_D are +-1, and mid lies strictly between 1 and 2
            if poly_value(D, mid) < 0:
                lo = mid
            else:
                hi = mid
        _alpha_cache[(D, steps)] = (lo, hi)
        return lo, hi


def _steps_for(D: int, tol: Fraction) -> int:
    steps = 1
    width = Fraction(1, 1 << (D - 1))
    while width > tol:
        steps += 1
        width /= 2
    return steps


def solve_alpha(D: int, tol: RationalLike = Fraction(1, 10**12)) -> AlphaEnclosure:
    """Certified enclosure of alpha_D, of width at most tol.

    >>> a = solve_alpha(2, Fraction(1, 10**9))
    >>> golden = (1 + Fraction(math.isqrt(5 * 10**40), 10**20)) / 2
    >>> a.lo < golden < a.hi and a.hi - a.lo <= Fraction(1, 10**9)
    True
    """
    if D < 2:
        raise ValueError(f"D must be >= 2, got {D}")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    lo, hi = _bisect(D, _steps_for(D, tol))
    return AlphaEnclosure(D, lo, hi)


def _d_interval(D: int, alpha: RatInterval) -> RatInterval:
    # (alpha - 1)/(2 + (D+1)(alpha - 2)); the denominator is positive on
    # the bracket: at alpha = 2(1 - 2^-D) it equals 2 - (D+1) 2^{1-D} > 0
    num = alpha.shift(-1)
    den = alpha.shift(-2).scale(D + 1).shift(2)
    return num / den


def coefficient_d(D: int, tol: RationalLike = Fraction(1, 10**12)) -> ConstantEnclosure:
    """Certified enclosure of d_D = (alpha_D - 1)/(2 + (D+1)(alpha_D - 2)).

    >>> d = coefficient_d(2, Fraction(1, 10**9))
    >>> round(float(d.midpoint()), 9)
    0.723606798
    """
    if D < 2:
        raise ValueError(f"D must be >= 2, got {D}")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    steps = 64
    while True:
        lo, hi = _bisect(D, steps)
        img = _d_interval(D, RatInterval(lo, hi))
        if img.width <= tol:
            return ConstantEnclosure(img.lo, img.hi)
        steps *= 2


def _quantized_steps(t: int) -> int:
    """Bisection depth for working at height alpha^t: generous, and
    quantized so nearby heights share one cached trajectory."""
    return 128 * ((t + 65 + 127) // 128)


def _alpha_powers(D: int, steps: int, upto: int) -> list[RatInterval]:
    """Outward-rounded interval powers alpha^0..alpha^upto, cached."""
    bits = steps + 64
    with _lock:
        powers = _power_cache.setdefault((D, steps), [RatInterval.point(1)])
        if len(powers) <= upto:
            alpha = RatInterval(*_bisect(D, steps))
            while len(powers) <= upto:
                powers.append((powers[-1] * alpha).outward(bits))
        return powers


def closed_form_count(t: int, D: int) -> int:
    """The rounded closed form rnd(d_D * alpha_D^t), computed with proof.

    The enclosure of d_D * alpha_D^t is refined until it has width below
    1/2 and contains no half-integer, so floor(x + 1/2) is constant on it;
    that unique integer is returned.  It must equal count_bounded(t, D);
    the match is a theorem, not an implementation artifact, which is why
    the two are computed by unrelated routes.

    >>> closed_form_count(4, 2)
    5
    >>> closed_form_count(0, 2)
    1
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if D < 2:
        raise ValueError(f"D must be >= 2, got {D}")
    steps = _quantized_steps(t)
    for _ in range(8):
        alpha = RatInterval(*_bisect(D, steps))
        x = _d_interval(D, alpha) * _alpha_powers(D, steps, t)[t]
        if x.width < _HALF:
            n_lo = math.floor(x.lo + _HALF)
            n_hi = math.floor(x.hi + _HALF)
            if n_lo == n_hi:
                return n_lo
        steps *= 2
    raise PrecisionExhausted(f"rounding of d*alpha^t stayed ambiguous at t={t}, D={D}")


def limit_constant(kind: str, parameter: int) -> ConstantEnclosure:
    """Certified enclosure of an asymptotic limit constant.

    kind "two_excursions_D" with parameter D: the constant
    d_D^2/(alpha_D^D (alpha_D - 1)) governing counts with one part > D.
    kind "depth_one_2n" with parameter n: the constant 1/(2n)! governing
    depth-1 counts with n parts > 1; exact, so a zero-width enclosure.
    """
    if kind == "depth_one_2n":
        n = parameter
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        return ConstantEnclosure(*[Fraction(1, math.factorial(2 * n))] * 2)
    if kind == "two_excursions_D":
        D = parameter
        if D < 2:
            raise ValueError(f"D must be >= 2, got {D}")
        steps = 64
        for _ in range(8):
            alpha = RatInterval(*_bisect(D, steps))
            d = _d_interval(D, alpha)
            power = RatInterval.point(1)
            for _ in range(D):
                power = power * alpha
            img = d * d / (power * alpha.shift(-1))
            if img.width <= Fraction(1, 10**12):
                return ConstantEnclosure(img.lo, img.hi)
            steps *= 2
        raise PrecisionExhausted(f"limit constant for D={D} did not converge")
    raise ValueError(f"unknown limit kind {kind!r}")


def _geometric_sums(D: int, steps: int, upto: int) -> tuple[list, list, list]:
    """Intervals for G(N) = sum alpha^u, W(N) = sum (u+1) alpha^u and
    GG(N) = sum_{u<=N} G(u), u = 0..N, grown incrementally per (D, steps)."""
    bits = steps + 64
    with _lock:
        one = RatInterval.point(1)
        g, w, gg = _sum_cache.setdefault((D, steps), ([one], [one], [one]))
        if len(g) <= upto:
            powers = _alpha_powers(D, steps, upto)
            while len(g) <= upto:
                u = len(g)
                g.append((g[-1] + powers[u]).outward(bits))
                w.append((w[-1] + powers[u].scale(u + 1)).outward(bits))
                gg.append((gg[-1] + g[u]).outward(bits))
        return g, w, gg


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
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if D < 2:
        raise ValueError(f"D must be >= 2, got {D}")
    n_terms = t - D - 1  # largest u = t - r
    if n_terms < 0:
        return Fraction(0), Fraction(0)
    steps = _quantized_steps(t)
    alpha = RatInterval(*_bisect(D, steps))
    d = _d_interval(D, alpha)
    g, w, gg = _geometric_sums(D, steps, n_terms)
    # with N = t - D - 1 and sums over u = 0..N:
    #   s1 = d^2 sum (u+1) alpha^u            (the dominant term)
    #   s2 = d (alpha G(N) - (N+1))/(alpha-1) (left-of-run geometric part)
    #   s3 = d GG(N)                          (right-of-run geometric part)
    #   s4 = (N+1)(N+2)/8                     (the constant 1/4 per cell)
    s1 = d * d * w[n_terms]
    s2 = d * (alpha * g[n_terms] - RatInterval.point(n_terms + 1)) / alpha.shift(-1)
    s3 = d * gg[n_terms]
    s4 = RatInterval.point(Fraction((n_terms + 1) * (n_terms + 2), 8))
    lower = s1 - s2.scale(_HALF) - s3.scale(_HALF) + s4
    upper = s1 + s2.scale(_HALF) + s3.scale(_HALF) + s4
    return lower.lo, upper.hi


@dataclass(frozen=True)
class TermReport:
    """Diagnostic growth ratios of the three sums behind the two-excursion
    asymptotics.

    rows holds (t, ratio1, ratio2, ratio3) where ratio1 = term1/(t alpha^t)
    approaches term1_limit, and ratio2, ratio3 divide the two geometric
    cross terms by alpha^t (they stay bounded; only term1 carries the
    leading t alpha^t growth).
    """

    D: int
    t_max: int
    term1_limit: float
    rows: tuple[tuple[int, float, float, float], ...]


def excursion_term_report(D: int, t_max: int) -> TermReport:
    """Tabulate the three term ratios for t = 1..t_max at 64-digit working
    precision.  Diagnostic only: no certification, unlike everything above.
    """
    if D < 2:
        raise ValueError(f"D must be >= 2, got {D}")
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    with mpmath.workdps(REPORT_DPS):
        enc = solve_alpha(D, Fraction(1, 10**(REPORT_DPS + 4)))
        alpha = mpmath.mpf(enc.lo.numerator) / enc.lo.denominator
        denc = coefficient_d(D, Fraction(1, 10**(REPORT_DPS + 4)))
        d = mpmath.mpf(denc.lo.numerator) / denc.lo.denominator
        limit = d * d / (alpha**D * (alpha - 1))
        rows = []
        alpha_t = alpha  # alpha^t, updated per t
        g = w = gg = mpmath.mpf(0)  # sums up to N = t - D - 1
        power = mpmath.mpf(1) / alpha  # alpha^N placeholder before N = 0
        for t in range(1, t_max + 1):
            n_terms = t - D - 1
            if n_terms >= 0:
                power = power * alpha
                g = g + power
                w = w + (n_terms + 1) * power
                gg = gg + g
                term1 = d * d * w
                term2 = d * (alpha * g - (n_terms + 1)) / (alpha - 1)
                term3 = d * gg
                rows.append(
                    (
                        t,
                        float(term1 / (t * alpha_t)),
                        float(term2 / alpha_t),
                        float(term3 / alpha_t),
                    )
                )
            else:
                rows.append((t, 0.0, 0.0, 0.0))
            alpha_t = alpha_t * alpha
        return TermReport(D, t_max, float(limit), tuple(rows))
