"""Exact 2x2 integer matrices for the modular group.

The representation sends the order-two generator to A = [[0, -1], [1, 0]]
and the order-three generator to B = [[1, -1], [1, 0]].  Both have
determinant one, so every word evaluates into SL(2,Z); passing to the
quotient by {I, -I} lands in PSL(2,Z), where A^2 = B^3 = 1.

Entries are Python integers and grow without bound: the trace of the
alternating-sign reciprocal word grows geometrically in t, with ratio
(3 + sqrt 5)/2, so fixed-width arithmetic would overflow near t = 45.

Every :class:`Mat2Z` checks its determinant when it is built.  The
product of two of them builds a new one, so a chain of products checks
each step; :func:`evaluate` instead folds a word four letters at a time,
on plain integers, from a table of the products of every word of one to
four letters built at import and keyed by the string of those letters, so
that a fold step looks up a slice of the word's string.  It builds one
matrix at the end, so the determinant of each evaluated word is checked
once, on the whole product.
"""

from __future__ import annotations

from ._contract import Value
from .words import EpsilonSeq, GroupWord, reciprocal_word


class Mat2Z(Value):
    """A 2x2 integer matrix [[p, q], [r, s]] with determinant one."""

    __slots__ = ("p", "q", "r", "s")

    def __init__(self, p: int, q: int, r: int, s: int):
        d = p * s - q * r
        if d != 1:
            raise ValueError(f"determinant must be 1, got {d}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)

    def __mul__(self, other: Mat2Z) -> Mat2Z:
        return Mat2Z(
            self.p * other.p + self.q * other.r,
            self.p * other.q + self.q * other.s,
            self.r * other.p + self.s * other.r,
            self.r * other.q + self.s * other.s,
        )

    def __neg__(self) -> Mat2Z:
        return Mat2Z(-self.p, -self.q, -self.r, -self.s)

    @property
    def trace(self) -> int:
        return self.p + self.s

    def inverse(self) -> Mat2Z:
        """The adjugate [[s, -q], [-r, p]]; exact because det = 1."""
        return Mat2Z(self.s, -self.q, -self.r, self.p)


IDENTITY = Mat2Z(1, 0, 0, 1)
GEN_A = Mat2Z(0, -1, 1, 0)
GEN_B = Mat2Z(1, -1, 1, 0)
GEN_B_INV = Mat2Z(0, 1, -1, 1)

# The entries (p, q, r, s) of each syllable's generator.
_ENTRIES = {
    syllable: (m.p, m.q, m.r, m.s)
    for syllable, m in (("a", GEN_A), ("b", GEN_B), ("B", GEN_B_INV))
}

#: letters folded per step of evaluate
_CHUNK = 4


def _build_chunks() -> dict[str, tuple[int, int, int, int]]:
    """The entries of the product of every word of 1 to _CHUNK letters,
    keyed by the string of its letters (3 + 9 + 27 + 81 = 120 words)."""
    chunks = dict(_ENTRIES)
    level = dict(chunks)
    for _ in range(_CHUNK - 1):
        level = {
            word + syllable: (
                p * gp + q * gr, p * gq + q * gs, r * gp + s * gr, r * gq + s * gs
            )
            for word, (p, q, r, s) in level.items()
            for syllable, (gp, gq, gr, gs) in _ENTRIES.items()
        }
        chunks.update(level)
    return chunks


_CHUNKS = _build_chunks()


def _leading_sign(m: Mat2Z) -> int:
    for entry in (m.p, m.q, m.r, m.s):
        if entry:
            return 1 if entry > 0 else -1
    return 0


class PSL2Element(Value):
    """A matrix mod +-I, stored with the first nonzero of (p, q, r, s)
    positive."""

    __slots__ = ("rep",)

    def __init__(self, rep: Mat2Z):
        if _leading_sign(rep) != 1:
            raise ValueError("representative is not sign-canonical")
        object.__setattr__(self, "rep", rep)

    @classmethod
    def of(cls, m: Mat2Z) -> PSL2Element:
        return cls(m if _leading_sign(m) == 1 else -m)

    def __mul__(self, other: PSL2Element) -> PSL2Element:
        return PSL2Element.of(self.rep * other.rep)

    def inverse(self) -> PSL2Element:
        return PSL2Element.of(self.rep.inverse())

    @property
    def trace_abs(self) -> int:
        return abs(self.rep.trace)

    def is_identity(self) -> bool:
        # entry by entry: classify asks this of every evaluated word
        m = self.rep
        return m.p == 1 and m.q == 0 and m.r == 0 and m.s == 1


def evaluate(w: GroupWord) -> PSL2Element:
    """Evaluate a word under a -> A, b -> B, mod +-I.

    Free reduction commutes with evaluation, so the word need not be
    reduced.  The product is folded on four integers, the entries of the
    running matrix, one step per four letters (fewer in the last step),
    each step one product with the table entry of a slice of the word's
    string; one :class:`Mat2Z` is built at the end, so the determinant is
    checked once, on the whole product.

    >>> evaluate(GroupWord.from_string("aa")).is_identity()
    True
    >>> evaluate(GroupWord.from_string("abaB")).trace_abs
    3
    """
    letters = w.letters
    p, q, r, s = 1, 0, 0, 1
    for i in range(0, len(letters), _CHUNK):
        gp, gq, gr, gs = _CHUNKS[letters[i : i + _CHUNK]]
        p, q, r, s = p * gp + q * gr, p * gq + q * gs, r * gp + s * gr, r * gq + s * gs
    return PSL2Element.of(Mat2Z(p, q, r, s))


def classify(m: PSL2Element) -> str:
    """One of "identity", "elliptic", "parabolic", "hyperbolic".

    Classification is by absolute trace (< 2, = 2, > 2), with the identity
    split off from the parabolic case.
    """
    if m.is_identity():
        return "identity"
    t = m.trace_abs
    if t < 2:
        return "elliptic"
    if t == 2:
        return "parabolic"
    return "hyperbolic"


def reciprocity_check(eps: EpsilonSeq) -> bool:
    """Verify the factorization w = P * a with P an involution.

    Here x is the half word ab^{e_1}...ab^{e_t}, P = x a x^{-1}, and w the
    full reciprocal word of eps.  P conjugates w to its inverse; the axis
    of w passes through the order-two fixed point of P.  True for every
    valid sign tuple.
    """
    word = reciprocal_word(eps).word
    return factors_through_involution(word, evaluate(word))


def _involution(x: Mat2Z) -> Mat2Z:
    """P = x a x^{-1} in closed form: with x = [[p, q], [r, s]] and
    a = [[0, -1], [1, 0]], P = [[pr + qs, -(p^2 + q^2)], [r^2 + s^2,
    -(pr + qs)]], built as one :class:`Mat2Z`, so det P = 1 is checked."""
    u = x.p * x.r + x.q * x.s
    return Mat2Z(u, -(x.p * x.p + x.q * x.q), x.r * x.r + x.s * x.s, -u)


def factors_through_involution(word: GroupWord, value: PSL2Element) -> bool:
    """The check of :func:`reciprocity_check` on a reciprocal normal form
    `word` whose evaluation `value` is already known: value = P * a for
    P = x a x^{-1}, with x the first half of word.  Only the half word is
    evaluated here.

    P is an involution by construction: it has trace 0 and determinant 1,
    so P^2 = -I by Cayley-Hamilton, and a test of its square could never
    fail.  What is compared is P * a = [[P_q, -P_p], [P_s, -P_r]] with
    value, entry by entry, up to sign.
    """
    p = _involution(evaluate(GroupWord(word.letters[: len(word) // 2])).rep)
    times_a = (p.q, -p.p, p.s, -p.r)
    m = value.rep
    return (m.p, m.q, m.r, m.s) in (times_a, tuple(-e for e in times_a))
