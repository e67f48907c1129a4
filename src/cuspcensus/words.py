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

The word route has two string kernels, which the object functions wrap:
:func:`normal_form_letters` spells every normal form of size ``t`` from the
template that :func:`reciprocal_word` uses, and :func:`canonical_letters`
reduces, cyclically reduces and rotates a string of letters to its least
rotation, on the full alternating text, which is what
:func:`canonical_cyclic_form` returns as a word.  From the same template,
:func:`composition_letters` spells the normal form of one run sequence.

The record types here are values of ``_contract.Value``: immutable,
slotted, and compared and hashed by their fields.
"""

from __future__ import annotations

from itertools import cycle, groupby, product
from typing import Iterator

from ._contract import Value, check_least

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


class EpsilonSeq(Value):
    """A nonempty tuple of signs, each +1 or -1; any other iterable of
    signs is read as the tuple it yields.

    The tuple ``(e_1, ..., e_t)`` encodes the reciprocal word of syllable
    length ``4t``; see :func:`reciprocal_word`.
    """

    __slots__ = ("signs",)

    def __init__(self, signs: tuple[int, ...]):
        if type(signs) is not tuple:
            signs = tuple(signs)
        if not signs:
            raise ValueError("sign tuple must be nonempty")
        # ints first, so that True and 1.0 are not read as 1, and the set
        # test meets only hashable items
        if set(map(type, signs)) != {int} or not _SIGNS.issuperset(signs):
            raise ValueError(f"signs must be +1 or -1, got {signs!r}")
        object.__setattr__(self, "signs", signs)

    @property
    def t(self) -> int:
        return len(self.signs)

    def __len__(self) -> int:
        return len(self.signs)

    def __iter__(self) -> Iterator[int]:
        return iter(self.signs)

    def negate(self) -> EpsilonSeq:
        return EpsilonSeq(tuple(-s for s in self.signs))


class ProjectiveEpsilonSeq(Value):
    """The class {e, -e} of a sign tuple, represented by its member with
    leading +1."""

    __slots__ = ("canonical",)

    def __init__(self, canonical: EpsilonSeq):
        if canonical.signs[0] != 1:
            raise ValueError("canonical representative must start with +1")
        object.__setattr__(self, "canonical", canonical)


class GroupWord(Value):
    """A word over {a, b, b^-1}, not necessarily reduced, held as the string
    of its letters; it compares and hashes by that string.  Any other
    iterable of letters is read as the string they spell.

    >>> str(GroupWord(("a", "b", "a", "B")))
    'abaB'
    >>> GroupWord(iter("ab")) == GroupWord("ab")
    True
    """

    __slots__ = ("letters",)

    def __init__(self, letters: str):
        # a string of valid letters strips to nothing, in one C-level pass
        if not isinstance(letters, str) or letters.strip(_LETTERS):
            letters = list(letters)
            for s in letters:
                if s not in ALPHABET:
                    raise ValueError(f"invalid syllable {s!r}, expected one of {ALPHABET}")
            letters = "".join(letters)
        object.__setattr__(self, "letters", letters)

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


class ReciprocalNormalForm(Value):
    """A sign tuple together with its length-4t reciprocal word."""

    __slots__ = ("eps", "word")

    def __init__(self, eps: EpsilonSeq, word: GroupWord):
        if len(word) != 4 * eps.t:
            raise ValueError("word length must be exactly 4t")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "word", word)


class Composition(Value):
    """An ordered tuple of positive integers; the empty tuple is the unique
    composition of 0.  Any other iterable of parts is read as the tuple it
    yields."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        if type(parts) is not tuple:
            parts = tuple(parts)
        # two C-level passes, since enumerate_compositions builds one per
        # composition it yields
        if parts and (set(map(type, parts)) != {int} or min(parts) < 1):
            raise ValueError(f"parts must be positive ints, got {parts!r}")
        object.__setattr__(self, "parts", parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)


def _template(half: str) -> str:
    """The letters of the normal form whose first half is ``half``: the
    second half is a x^-1 a for the first half x."""
    return half + "a" + half[:0:-1].translate(_INVERSE)


def normal_form_letters(t: int) -> Iterator[str]:
    """The letters of the 2^t reciprocal normal forms of size ``t``, one
    string each, in the order of ``product((1, -1), repeat=t)``.

    >>> list(normal_form_letters(2))
    ['ababaBaB', 'abaBabaB', 'aBabaBab', 'aBaBabab']
    """
    check_least(t=(t, 1))
    return map(_template, map("".join, product((_PAIR[1], _PAIR[-1]), repeat=t)))


def composition_letters(parts: tuple[int, ...]) -> str:
    """The letters of the reciprocal normal form whose signs start at +1
    and change after each part, so that :func:`run_sequence` of its sign
    tuple gives ``parts``; spelled as one string from the template of
    :func:`normal_form_letters`.  The parts must be a nonempty sequence of
    positive ints.

    >>> composition_letters((2, 1))
    'ababaBabaBaB'
    >>> str(reciprocal_word(EpsilonSeq((1, 1, -1))).word)
    'ababaBabaBaB'
    """
    # an empty tuple has no type of part, so it fails the first test
    if set(map(type, parts)) != {int} or min(parts) < 1:
        raise ValueError(f"parts must be nonempty positive ints, got {parts!r}")
    return _template("".join(map(str.__mul__, cycle((_PAIR[1], _PAIR[-1])), parts)))


def reciprocal_word(eps: EpsilonSeq) -> ReciprocalNormalForm:
    """Expand a sign tuple into its reciprocal normal form.

    >>> str(reciprocal_word(EpsilonSeq((1,))).word)
    'abaB'
    >>> str(reciprocal_word(EpsilonSeq((1, -1))).word)
    'abaBabaB'
    """
    text = _template("".join(map(_PAIR.__getitem__, eps.signs)))
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


def _reduce(text: str) -> str:
    """Reduce letters on a stack, which holds a reduced prefix: one merge
    of its top with the next letter keeps it reduced."""
    stack: list[str] = []
    for s in text:
        if stack and (stack[-1] == "a") == (s == "a"):
            stack.extend(_PRODUCT[stack.pop() + s])
        else:
            stack.append(s)
    return "".join(stack)


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
    return GroupWord(_reduce(w.letters))


def _cyclic_reduce(text: str) -> str:
    """Shorten the letters of a reduced word by conjugation until its first
    and last syllables lie in different free factors (or length <= 1)."""
    while len(text) >= 2 and (text[0] == "a") == (text[-1] == "a"):
        text = text[1:-1] + _PRODUCT[text[-1] + text[0]]
    return text


def canonical_letters(text: str) -> str:
    """The letters of the canonical cyclic form of the word spelled by
    ``text``; see :func:`canonical_cyclic_form`.  Invalid letters raise the
    ``ValueError`` of :class:`GroupWord`.

    A cyclically reduced text of length >= 2 alternates between the two
    free factors, so its least rotation starts at an ``a``, and two such
    rotations first differ at a b-letter.  Unless its b-letters are all
    equal, the text is rotated to end with ``"aB"``, so that no run of
    ``"ab"`` wraps around; the least rotation begins with a longest run of
    ``"ab"`` followed by ``"aB"``, read off ``str.split``, and only the
    rotations starting at such a run, found with ``str.find``, are
    compared, as slices of the doubled text.

    >>> canonical_letters("BabaBa")
    'abaBaB'
    """
    if not isinstance(text, str) or text.strip(_LETTERS):
        text = GroupWord(text).letters
    # the pairs of _PRODUCT spelled out, as GroupWord.is_reduced tests them
    if "aa" in text or "bb" in text or "BB" in text or "bB" in text or "Bb" in text:
        text = _reduce(text)
    text = _cyclic_reduce(text)
    if len(text) <= 1:
        return text
    if text[0] != "a":
        text = text[1:] + text[0]
    # b-letters all equal read the same from every start at an a
    if "b" not in text or "B" not in text:
        return text
    k = text.find("aB") + 2
    text = text[k:] + text[:k]
    run = max(text.split("aB")) + "aB"
    n = len(text)
    doubled = text + text
    # B sorts before b in ASCII, the reverse of b < b^-1, so among
    # rotations starting at an a the least is the greatest string
    best = ""
    i = text.find(run)
    while i >= 0:
        best = max(best, doubled[i : i + n])
        i = text.find(run, i + len(run))
    return best


def canonical_cyclic_form(w: GroupWord) -> GroupWord:
    """Canonical representative of the cyclic-conjugacy class of ``w``.

    Reduces, cyclically reduces, then rotates to the least rotation under
    the fixed syllable order a < b < b^-1.  Two reduced words are conjugate
    in Z2 * Z3 exactly when their canonical cyclic forms are equal.  The
    work is done on the letters by :func:`canonical_letters`, whose least
    rotation runs on the full alternating text.

    >>> str(canonical_cyclic_form(GroupWord.from_string("BabaBa")))
    'abaBaB'
    """
    return GroupWord(canonical_letters(w.letters))
