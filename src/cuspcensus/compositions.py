"""Exact counting and enumeration of compositions of an integer.

A composition of t encodes a projective sign tuple through its run
sequence, so counting reciprocal geodesics of word length 4t reduces to
counting compositions of t.  Three families matter here:

* all compositions of t (there are 2^{t-1} for t >= 1),
* compositions with every part at most D (counted by a depth-D linear
  recursion, Fibonacci-like),
* compositions with exactly n parts bigger than D (geodesics making
  exactly 2n cusp excursions of depth bigger than D).

Every count is an exact Python integer; this module contains no floating
point.  The last two families are read off one generating function:
marking the parts bigger than D with y gives

    sum_{t,n} count(t, n, D) x^t y^n = (1 - x) / (1 - 2x + (1 - y) x^{D+1}),

read in five ways, none of which keeps a table:

* census rows of a t-range: R_t(y) = sum_n count(t, n, D) y^n obeys
  R_t = 2 R_{t-1} - (1 - y) R_{t-D-1} for t >= 2, with R_0 = R_1 = 1, so a
  window of the last D+1 rows gives each row in O(row) steps from the one
  before, in O(D * row) memory;
* one census row alone: in powers of (y - 1) the generating function is
  sum_j (y - 1)^j (1 - x) x^{j(D+1)} / (1 - 2x)^{j+1}, so R_t has t // (D+1)
  + 1 coefficients, each one binomial times a power of two (see
  census_row), with no walk from t = 0;
* one census column, the coefficient of y^n for a t-range: a recurrence
  in t alone, of order D+1 (see census_column), one step per t, so the
  whole column costs what its last cell costs alone;
* one census cell: the same recurrence walked up to t without yielding
  (count_exact_excursions), O(t) steps for any n;
* y = 0: column n = 0 is the bounded count (count_bounded).

The positional double sum (``two_excursion_sum``,
``two_excursion_column``) is the independent route the kernel is checked
against; it builds the bounded counts it needs by their D-term sum, once
per call: a column of double sums shares them across its t-range.
No binomial is computed here: census checks the depth-1 counts against
math.comb and reads their limit 1/(2n)! from spectral.limit_constant.
Nothing is kept between calls: every function is a pure function of its
arguments, and memory is bounded by the request.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from itertools import accumulate, chain, islice, zip_longest
from typing import Iterator, Optional

from ._contract import check_least
from .words import Composition


def count_all(t: int) -> int:
    """Number of compositions of t: 2^{t-1}, with one empty composition
    for t = 0.

    >>> [count_all(t) for t in range(5)]
    [1, 1, 2, 4, 8]
    """
    check_least(t=(t, 0))
    return 1 if t == 0 else 1 << (t - 1)


def _rows(D: int) -> Iterator[list[int]]:
    """Yield R_0, R_1, R_2, ...: entry n of R_t is the number of
    compositions of t with exactly n parts bigger than D.  Only the last
    D+1 rows are held."""
    window = deque([[]] * D + [[1]], maxlen=D + 1)  # R_{-D}, ..., R_0
    yield [1]
    window.append([1])
    yield [1]
    while True:
        # R_t = 2 R_{t-1} - R_{t-D-1} + y R_{t-D-1}
        back, prev = window[0], window[-1]
        row = [
            2 * p - b + c
            for p, b, c in zip_longest(prev, back, [0] + back, fillvalue=0)
        ]
        window.append(row)
        yield row


def count_bounded(t: int, D: int) -> int:
    """Number of compositions of t with all parts at most D.

    Satisfies |C_{t,D}| = sum_{i=1}^{D} |C_{t-i,D}| with |C_{0,D}| = 1.
    Computed as cell n = 0 of the kernel's column (see census_column):
    O(t) steps and O(D) memory.

    >>> [count_bounded(t, 2) for t in range(7)]
    [1, 1, 2, 3, 5, 8, 13]
    """
    return count_exact_excursions(t, 0, D)


def census_rows(t_lo: int, t_hi: int, D: int) -> Iterator[tuple[int, list[int]]]:
    """(t, row) for t = t_lo..t_hi: entry n of row is the number of
    compositions of t with exactly n parts bigger than D.

    One pass of the kernel serves the whole range, one step per t, and
    lasts only as long as the request.  The arguments are checked at the
    call, before any row is read.

    >>> [row for _, row in census_rows(3, 5, 2)]
    [[3, 1], [5, 3], [8, 8]]
    """
    check_least(t_lo=(t_lo, 0), D=(D, 1))
    rows = islice(_rows(D), t_lo, max(t_lo, t_hi + 1))
    return ((t, list(row)) for t, row in enumerate(rows, t_lo))


#: the largest j at which census_row takes C(N, j) from math.comb: below
#: about j = 100 it is quicker than a ratio step's Python arithmetic
_COMB_J = 100


def census_row(t: int, D: int) -> list[int]:
    """Counts of the compositions of t by their number of parts bigger
    than D: entry n is count_exact_excursions(t, n, D), for
    n = 0..t // (D+1).

    In powers of y - 1, R_t(y) = sum_{j=0}^{J} b_j (y - 1)^j with
    J = t // (D+1) and b_j = [x^t] (1 - x) x^{j(D+1)} / (1 - 2x)^{j+1}.
    With m = t - j(D+1) and N = m + j = t - jD,
    b_j = C(N, j) 2^{m-1} (m + 2j) / N for m >= 1, where the division is
    exact, and b_j = 1 for m = 0.  Every count is below 2^w, w the least
    multiple of 8 with w >= t, so Horner's rule evaluates R_t at y = 2^w
    on one integer, and its bytes, cut into w/8-byte pieces, are the row:
    no walk from t = 0.  That integer is the size of the row returned.
    Above j = _COMB_J the binomials are one pass: C(N, J) once, then from
    j to j - 1 the exact ratio step C(N + D, j - 1) = C(N, j) j
    (N+1)...(N+D) / ((m+1)...(m+D+1)), multiplied before it is divided;
    from j = _COMB_J down, math.comb(N, j) costs less than a step.

    >>> census_row(7, 1)
    [1, 21, 35, 7]
    >>> census_row(4, 2)
    [5, 3]
    >>> census_row(0, 3)
    [1]
    >>> row = census_row(3000, 4)
    >>> len(row), sum(row) == count_all(3000)
    (601, True)
    >>> [row[n] == count_exact_excursions(3000, n, 4) for n in (0, 1, 299, 600)]
    [True, True, True, True]
    """
    check_least(t=(t, 0), D=(D, 1))
    if t == 0:
        return [1]
    J = t // (D + 1)
    size = (t + 7) // 8
    w = 8 * size
    acc = 0
    for j in range(J, -1, -1):
        m = t - j * (D + 1)
        N = m + j
        if j == J or j <= _COMB_J:
            binomial = math.comb(N, j)
        b = (binomial * (m + 2 * j) // N) << (m - 1) if m else 1
        acc = (acc << w) - acc + b  # acc * (y - 1) + b_j at y = 2^w
        if j > _COMB_J:
            binomial = (binomial * (j * math.prod(range(N + 1, N + D + 1)))
                        // math.prod(range(m + 1, m + D + 2)))
    data = acc.to_bytes(size * (J + 1), "little")
    return [int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)]


def census_column(t_lo: int, t_hi: int, n: int, D: int) -> Iterator[tuple[int, int]]:
    """(t, count_exact_excursions(t, n, D)) for t = t_lo..t_hi, from one
    walk of the kernel's coefficient of y^n.

    That coefficient is [y^n] (1 - x) / (1 - 2x + (1 - y) x^{D+1}) =
    (1 - x) x^{n(D+1)} / P^{n+1} with P = 1 - 2x + x^{D+1}.  The series
    F = P^{-(n+1)} = sum_m a_m x^m obeys P F' = -(n+1) P' F, that is
    (m+1) a_{m+1} = 2 (m+n+1) a_m - (m+n(D+1)+1) a_{m-D},
    where the division is exact since every a_m is an integer.  The count
    at t is a_M - a_{M-1} with M = t - n(D+1), and 0 for t < n(D+1).  The
    walk passes every M on its way to the last one: it runs silently up
    to t_lo, then yields one count per step, in O(D) memory.  The
    arguments are checked at the call; an empty range yields nothing.

    >>> list(census_column(4, 8, 1, 2))
    [(4, 3), (5, 8), (6, 18), (7, 38), (8, 76)]
    >>> list(census_column(0, 3, 2, 1))
    [(0, 0), (1, 0), (2, 0), (3, 0)]
    """
    check_least(t_lo=(t_lo, 0), n=(n, 0), D=(D, 1))
    return _column(t_lo, t_hi, n, D)


def _column(t_lo: int, t_hi: int, n: int, D: int) -> Iterator[tuple[int, int]]:
    base = n * (D + 1)  # the least t with n parts bigger than D
    for t in range(t_lo, min(t_hi + 1, base)):
        yield t, 0
    lo = max(t_lo, base)
    if lo > t_hi:
        return
    k = base + 1
    # ring[m % (D+1)] holds a_m for the last D+1 values of m
    ring = [1] + [0] * D
    before, last = 0, 1
    # two loops, so that a one-t query pays no yield or test per step
    for m in range(lo - base):
        i = (m + 1) % (D + 1)
        before, last = last, (2 * (m + n + 1) * last - (m + k) * ring[i]) // (m + 1)
        ring[i] = last
    yield lo, last - before
    for m in range(lo - base, t_hi - base):
        i = (m + 1) % (D + 1)
        before, last = last, (2 * (m + n + 1) * last - (m + k) * ring[i]) // (m + 1)
        ring[i] = last
        yield m + 1 + base, last - before


def count_exact_excursions(t: int, n: int, D: int) -> int:
    """Number of compositions of t with exactly n parts bigger than D.

    Each such composition is the run sequence of a reciprocal geodesic of
    word length 4t making exactly 2n excursions of depth bigger than D.
    It is the one cell t of census_column: the walk runs silently up to t,
    O(t) steps and O(D) memory for every n.

    >>> count_exact_excursions(7, 2, 1)
    35
    >>> count_exact_excursions(5, 1, 2)
    8
    >>> count_exact_excursions(4, 0, 2) == count_bounded(4, 2)
    True
    """
    check_least(t=(t, 0), n=(n, 0), D=(D, 1))
    ((_, count),) = _column(t, t, n, D)
    return count


def _bounded_counts(D: int, upto: int) -> list[int]:
    """|C_{0,D}|, ..., |C_{upto,D}| by the D-term sum
    |C_{s,D}| = sum_{i=1}^{D} |C_{s-i,D}|, independent of the kernel."""
    row = [1]
    while len(row) <= upto:
        row.append(sum(row[-D:]))
    return row


def two_excursion_sum(t: int, D: int) -> int:
    """Compositions of t with one part bigger than D, by the positional
    double sum: a part r > D at position k of the underlying tuple leaves a
    bounded composition of k-1 before it and one of t-k-r+1 after it, so
    the (k, r) term is |C_{k-1,D}| * |C_{t-k-r+1,D}|.  Equals
    count_exact_excursions(t, 1, D).

    With a_i = |C_{i,D}|, A_j = a_0 + ... + a_j and s = t - D - 1,
    grouping the (k, r) grid by i = k - 1 turns the double sum into
    sum_{i=0}^{s} a_i A_{s-i}: the parts before the big one form a bounded
    composition of i, and those after it one of any j <= s - i, the big
    part taking up the rest.  It is the one cell t of
    two_excursion_column.

    >>> two_excursion_sum(5, 2)
    8
    >>> two_excursion_sum(2, 2)
    0
    """
    check_least(t=(t, 1), D=(D, 1))
    ((_, total),) = _double_sums(t, t, D)
    return total


def two_excursion_column(t_lo: int, t_hi: int, D: int) -> Iterator[tuple[int, int]]:
    """(t, two_excursion_sum(t, D)) for t = t_lo..t_hi.

    The bounded counts a_0, ..., a_s up to the last s = t_hi - D - 1 are
    built once, by their D-term sum, with their prefix sums A_j; each t
    then costs its own sum over i.  The arguments are checked at the
    call; an empty range yields nothing.

    >>> list(two_excursion_column(3, 6, 2))
    [(3, 1), (4, 3), (5, 8), (6, 18)]
    """
    check_least(t_lo=(t_lo, 1), D=(D, 1))
    return _double_sums(t_lo, t_hi, D)


def _double_sums(t_lo: int, t_hi: int, D: int) -> Iterator[tuple[int, int]]:
    a = _bounded_counts(D, t_hi - D - 1)
    prefix = list(accumulate(a))
    for t in range(t_lo, t_hi + 1):
        s = t - D - 1
        # a[s::-1] is a_s, ..., a_0, paired with A_0, ..., A_s
        yield t, sum(map(operator.mul, a[s::-1], prefix)) if s >= 0 else 0


def enumerate_compositions(
    t: int, n: Optional[int] = None, D: Optional[int] = None
) -> Iterator[Composition]:
    """Every composition of t exactly once, optionally only those with
    exactly n parts bigger than D.

    Order is fixed: ascending glue bitmask, where bit j of the mask merges
    positions j+1 and j+2 of the underlying tuple (equivalently descending
    cut-point bitmask).  On the parts this is colex order: by the last
    part ascending, then by the part before it, and so on.  For t = 3 this
    gives (1,1,1), (2,1), (1,2), (3).

    One depth-first walk from the last part back yields them, on a stack
    of its own.  It tries only the parts after which the big parts still
    owed fit in the units left, so every branch it takes ends in a
    composition it yields: the cost is at most t steps per composition,
    whatever 2^(t-1) is.  The arguments are checked at the call.
    """
    check_least(t=(t, 0), n=(n, 0), D=(D, 1))
    if (n is None) != (D is None):
        raise ValueError("filter needs both n and D or neither")
    # no filter: none of the parts of t is bigger than t
    return _compositions(t, 0, t) if n is None else _compositions(t, n, D)


def _compositions(t: int, n: int, D: int) -> Iterator[Composition]:
    # (units left, big parts owed, the parts after them); a part p leaves k
    # owed in s - p units if p <= D and k - 1 if not, and is pushed only if
    # those fit, the largest first so that the smallest comes off first
    stack = [(t, n, ())]
    while stack:
        s, k, tail = stack.pop()
        if not (s or k):
            yield Composition(tail)
        for p in chain(range(s - (k - 1) * (D + 1), D, -1) if k else (),
                       range(min(D, s - k * (D + 1)), 0, -1)):
            stack.append((s - p, k - (p > D), (p,) + tail))
