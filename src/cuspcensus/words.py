"""Words and normal forms in the free product Z2 * Z3.

The modular group PSL(2,Z) is the free product of a cyclic group of order
two, generated by ``a``, and a cyclic group of order three, generated by
``b``.  Group elements are reduced words over the symmetric alphabet
``{a, b, b^-1}``, and a closed geodesic on the quotient surface is a
cyclic-conjugacy class of such words.

A reciprocal word of syllable length ``4t`` is determined by a tuple of
signs ``(e_1, ..., e_t)`` through the template

    a b^{e_1} ... a b^{e_t} a b^{-e_t} ... a b^{-e_1}

This module implements the sign tuples, the template and its inverse, the
projectivization identifying a tuple with its negation, run-length
extraction, free-product reduction, and a canonical form deciding cyclic
conjugacy.

Throughout, the syllable ``b^-1`` is written ``"B"``, and a word holds its
letters as one string, which every operation here reads and builds.  The
group law is stated once, in two tables: ``_PRODUCT`` multiplies two letters
of one free factor (``a^2 = b^3 = 1``) and ``_INVERSE`` inverts letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterator

from ._contract import check_least

ALPHABET = ("a", "b", "B")

_LETTERS = "".join(ALPHABET)
_SIGNS = frozenset((1, -1))

# The product of two letters of one free factor: a^2 = 1 and b^3 = 1.
_PRODUCT = {"aa": "", "bB": "", "Bb": "", "bb": "B", "BB": "b"}
_INVERSE = str.maketrans("bB", "Bb")

# The template's two syllables for a sign.
_PAIR = {1: "ab", -1: "aB"}


class NotNormalForm(ValueError):
    """Raised when a word does not match the reciprocal template."""


def _all_in(allowed: frozenset, items) -> bool:
    """Whether every item is in allowed, by one C-level set test; an
    unhashable item is not in it."""
    try:
        return allowed.issuperset(items)
    except TypeError:
        return False


@dataclass(frozen=True)
class EpsilonSeq:
    """A nonempty tuple of signs, each +1 or -1; any other iterable of
    signs is read as the tuple it yields.

    The tuple ``(e_1, ..., e_t)`` encodes the reciprocal word of syllable
    length ``4t``; see :func:`reciprocal_word`.
    """

    signs: tuple[int, ...]

    def __post_init__(self):
        if type(self.signs) is not tuple:
            object.__setattr__(self, "signs", tuple(self.signs))
        if not self.signs:
            raise ValueError("sign tuple must be nonempty")
        if not _all_in(_SIGNS, self.signs):
            raise ValueError(f"signs must be +1 or -1, got {self.signs!r}")

    @property
    def t(self) -> int:
        return len(self.signs)

    def __len__(self) -> int:
        return len(self.signs)

    def __iter__(self) -> Iterator[int]:
        return iter(self.signs)

    def negate(self) -> EpsilonSeq:
        return EpsilonSeq(tuple(-s for s in self.signs))


@dataclass(frozen=True)
class ProjectiveEpsilonSeq:
    """The class {e, -e} of a sign tuple, represented by its member with
    leading +1."""

    canonical: EpsilonSeq

    def __post_init__(self):
        if self.canonical.signs[0] != 1:
            raise ValueError("canonical representative must start with +1")


@dataclass(frozen=True)
class GroupWord:
    """A word over {a, b, b^-1}, not necessarily reduced, held as the string
    of its letters; it compares and hashes by that string.  Any other
    iterable of letters is read as the string they spell.

    >>> str(GroupWord(("a", "b", "a", "B")))
    'abaB'
    >>> GroupWord(iter("ab")) == GroupWord("ab")
    True
    """

    letters: str

    def __post_init__(self):
        letters = self.letters
        # a string of valid letters strips to nothing, in one C-level pass
        if isinstance(letters, str) and not letters.strip(_LETTERS):
            return
        letters = list(letters)
        for s in letters:
            if s not in ALPHABET:
                raise ValueError(f"invalid syllable {s!r}, expected one of {ALPHABET}")
        object.__setattr__(self, "letters", "".join(letters))

    @property
    def syllables(self) -> tuple[str, ...]:
        return tuple(self.letters)

    @classmethod
    def from_string(cls, text: str) -> GroupWord:
        return cls(text)

    def __str__(self) -> str:
        return self.letters or "1"

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: GroupWord) -> GroupWord:
        """Concatenation, without reduction."""
        return GroupWord(self.letters + other.letters)

    def inverse(self) -> GroupWord:
        return GroupWord(self.letters[::-1].translate(_INVERSE))

    def is_reduced(self) -> bool:
        """No two adjacent letters lie in one free factor: no pair that
        ``_PRODUCT`` multiplies occurs in the letters."""
        return not any(map(self.letters.__contains__, _PRODUCT))


@dataclass(frozen=True)
class ReciprocalNormalForm:
    """A sign tuple together with its length-4t reciprocal word."""

    eps: EpsilonSeq
    word: GroupWord

    def __post_init__(self):
        if len(self.word) != 4 * self.eps.t:
            raise ValueError("word length must be exactly 4t")


@dataclass(frozen=True)
class Composition:
    """An ordered tuple of positive integers; the empty tuple is the unique
    composition of 0.  Any other iterable of parts is read as the tuple it
    yields."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if type(self.parts) is not tuple:
            object.__setattr__(self, "parts", tuple(self.parts))
        parts = self.parts
        # two C-level passes, since enumerate_compositions builds one per mask
        if parts and (set(map(type, parts)) != {int} or min(parts) < 1):
            raise ValueError(f"parts must be positive ints, got {self.parts!r}")

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)


def reciprocal_word(eps: EpsilonSeq) -> ReciprocalNormalForm:
    """Expand a sign tuple into its reciprocal normal form.

    >>> str(reciprocal_word(EpsilonSeq((1,))).word)
    'abaB'
    >>> str(reciprocal_word(EpsilonSeq((1, -1))).word)
    'abaBabaB'
    """
    half = "".join(map(_PAIR.__getitem__, eps.signs))
    # the second half is a x^-1 a for the first half x
    text = half + "a" + half[:0:-1].translate(_INVERSE)
    return ReciprocalNormalForm(eps, GroupWord(text))


def epsilon_of(w: GroupWord) -> EpsilonSeq:
    """Recover the sign tuple of a reciprocal normal form.

    Inverse of :func:`reciprocal_word`.  Raises :class:`NotNormalForm` when
    the word does not match the template exactly.
    """
    text = w.letters
    n = len(text)
    if n == 0 or n % 4 != 0:
        raise NotNormalForm(f"syllable length {n} is not a positive multiple of 4")
    letters = text[1::2]
    if text[::2] != "a" * len(letters) or "a" in letters:
        raise NotNormalForm("expected 'a' and b-syllables to alternate, from an 'a'")
    t = n // 4
    if letters[t:] != letters[:t][::-1].translate(_INVERSE):
        raise NotNormalForm("suffix signs do not negate the reversed prefix")
    return EpsilonSeq(tuple(1 if x == "b" else -1 for x in letters[:t]))


def projectivize(eps: EpsilonSeq) -> ProjectiveEpsilonSeq:
    """Send a sign tuple to its {e, -e} class, represented with leading +1."""
    if eps.signs[0] == 1:
        return ProjectiveEpsilonSeq(eps)
    return ProjectiveEpsilonSeq(eps.negate())


def run_sequence(eps: EpsilonSeq) -> Composition:
    """Lengths of the maximal blocks of equal consecutive signs.

    >>> run_sequence(EpsilonSeq((1, 1, 1, -1, 1, -1, -1, 1))).parts
    (3, 1, 1, 2, 1)
    """
    return Composition(tuple(len(list(run)) for _, run in groupby(eps.signs)))


def excursion_parts(c: Composition, depth: int) -> int:
    """Number of parts strictly greater than ``depth``.

    A reciprocal geodesic whose run sequence has exactly ``n`` parts bigger
    than ``depth`` makes exactly ``2n`` excursions past the depth-``depth``
    thick part.
    """
    check_least(depth=(depth, 1))
    return sum(1 for p in c.parts if p > depth)


def reduce_word(w: GroupWord) -> GroupWord:
    """Fully reduce a word in Z2 * Z3.

    Replaces two adjacent letters of one free factor by their product in
    ``_PRODUCT``.  Idempotent and length-nonincreasing.  A word that is
    already reduced (one substring test per pair in ``_PRODUCT``, see
    :meth:`GroupWord.is_reduced`) is returned as it is; any other word is
    reduced letter by letter on a stack.

    >>> str(reduce_word(GroupWord.from_string("aa")))
    '1'
    >>> str(reduce_word(GroupWord.from_string("bb")))
    'B'
    """
    if w.is_reduced():
        return w
    stack: list[str] = []
    for s in w.letters:
        # the stack is a reduced prefix, which one merge keeps reduced
        if stack and (stack[-1] == "a") == (s == "a"):
            stack.extend(_PRODUCT[stack.pop() + s])
        else:
            stack.append(s)
    return GroupWord("".join(stack))


def _cyclic_reduce(text: str) -> str:
    """Shorten the letters of a reduced word by conjugation until its first
    and last syllables lie in different free factors (or length <= 1)."""
    while len(text) >= 2 and (text[0] == "a") == (text[-1] == "a"):
        text = text[1:-1] + _PRODUCT[text[-1] + text[0]]
    return text


def canonical_cyclic_form(w: GroupWord) -> GroupWord:
    """Canonical representative of the cyclic-conjugacy class of ``w``.

    Reduces, cyclically reduces, then rotates to the least rotation under
    the fixed syllable order a < b < b^-1.  Two reduced words are conjugate
    in Z2 * Z3 exactly when their canonical cyclic forms are equal.

    A cyclically reduced word of length >= 2 alternates between the two
    free factors, so its least rotation starts at an ``a`` and is fixed by
    the least rotation of its b-letters.  That one begins with a longest
    cyclic run of ``b``: the b-letters are rotated to end with a ``B``, so
    that no run wraps around, the run length is read off ``str.split`` and
    its starts found with ``str.find``, and only the rotations starting
    there are compared, as slices of the doubled b-letters.

    >>> str(canonical_cyclic_form(GroupWord.from_string("BabaBa")))
    'abaBaB'
    """
    text = _cyclic_reduce(reduce_word(w).letters)
    if len(text) <= 1:
        return GroupWord(text)
    letters = text[1::2] if text[0] == "a" else text[::2]
    k = letters.find("B")
    # b-letters all equal read the same from every start
    if k >= 0 and "b" in letters:
        letters = letters[k + 1 :] + letters[: k + 1]
        run = "b" * max(map(len, letters.split("B"))) + "B"
        n = len(letters)
        doubled = letters + letters
        # B sorts before b in ASCII, the reverse of b < b^-1, so among
        # slices of one length the least rotation is the greatest string
        best = ""
        i = letters.find(run)
        while i >= 0:
            best = max(best, doubled[i : i + n])
            i = letters.find(run, i + len(run))
        letters = best
    return GroupWord("a" + "a".join(letters))
