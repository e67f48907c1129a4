"""Tests for words: templates, sign tuples, runs, reduction, conjugacy."""

import itertools
import re

import pytest
from hypothesis import given, strategies as st

from cuspcensus.compositions import enumerate_compositions
from cuspcensus.words import (
    ALPHABET,
    Composition,
    EpsilonSeq,
    GroupWord,
    NotNormalForm,
    canonical_cyclic_form,
    canonical_letters,
    composition_letters,
    epsilon_of,
    excursion_parts,
    normal_form_letters,
    projectivize,
    reciprocal_word,
    reduce_word,
    run_sequence,
)

signs = st.lists(st.sampled_from([1, -1]), min_size=1, max_size=12).map(
    lambda xs: EpsilonSeq(tuple(xs))
)
raw_words = st.lists(st.sampled_from(ALPHABET), min_size=0, max_size=40).map(
    lambda xs: GroupWord(tuple(xs))
)

_EXPONENT = {"b": 1, "B": 2}


def stack_reduced(letters: str) -> str:
    """Reference free reduction: push each letter, cancelling aa and
    merging two b-letters by adding their exponents mod 3."""
    out = []
    for x in letters:
        if out and x == "a" == out[-1]:
            out.pop()
        elif out and x != "a" != out[-1]:
            e = (_EXPONENT[out.pop()] + _EXPONENT[x]) % 3
            if e:
                out.append(" bB"[e])
        else:
            out.append(x)
    return "".join(out)


def least_rotation(letters: str) -> str:
    """Reference canonical form: reduce, conjugate the last letter to the
    front while both ends lie in one free factor, then take the least of
    all rotations under a < b < b^-1."""
    w = stack_reduced(letters)
    while len(w) >= 2 and (w[0] == "a") == (w[-1] == "a"):
        w = stack_reduced(w[-1] + w[:-1])
    order = str.maketrans("abB", "012")
    rotations = [w[i:] + w[:i] for i in range(len(w))]
    return min(rotations, key=lambda r: r.translate(order), default="")


def letters(w: GroupWord) -> str:
    return "".join(w.syllables)


reduced_words = raw_words.map(lambda w: GroupWord(tuple(stack_reduced(letters(w)))))


# -- sign tuples -------------------------------------------------------------


def test_eps_validation():
    with pytest.raises(ValueError):
        EpsilonSeq(())
    with pytest.raises(ValueError):
        EpsilonSeq((1, 0))
    with pytest.raises(ValueError):
        EpsilonSeq((2,))


def test_invalid_items_keep_their_messages():
    # a one-pass test decides validity; the message still names the bad
    # input, and items that would spell valid letters once joined are not
    # letters themselves
    cases = (
        (("a", "c", "b"), "'c'"), (("a", ["b"]), "['b']"), (("b", 1), "1"),
        (("ab",), "'ab'"), (("",), "''"), (("a", "bB"), "'bB'"),
    )
    for syllables, bad in cases:
        with pytest.raises(ValueError) as info:
            GroupWord(syllables)
        assert str(info.value) == f"invalid syllable {bad}, expected one of ('a', 'b', 'B')"
    for bad in ((1, 0), (1, -1, 2), (-1, [1])):
        with pytest.raises(ValueError) as info:
            EpsilonSeq(bad)
        assert str(info.value) == f"signs must be +1 or -1, got {bad!r}"
    assert str(GroupWord(("a", "b", "B"))) == "abB"
    assert EpsilonSeq((1, -1)).t == 2


@pytest.mark.parametrize("bad", [(1, True), (True,), (1.0, -1.0), (1, -1.0)])
def test_eps_rejects_signs_that_are_not_ints(bad):
    # True == 1 and 1.0 == 1, so a set test alone would hold them as signs
    # that compare equal to the int tuple and print as they came
    with pytest.raises(ValueError) as info:
        EpsilonSeq(bad)
    assert str(info.value) == f"signs must be +1 or -1, got {bad!r}"


def test_eps_reads_any_iterable_of_signs():
    # a list or an iterator of signs is held as the tuple it yields: it
    # compares and hashes as that tuple, and an iterator is read once,
    # before it is validated
    e = EpsilonSeq((1, -1))
    assert EpsilonSeq([1, -1]) == e
    assert hash(EpsilonSeq([1, -1])) == hash(e)
    assert EpsilonSeq(iter((1, -1))).t == 2
    assert EpsilonSeq(s for s in (1, -1)).signs == (1, -1)
    with pytest.raises(ValueError) as info:
        EpsilonSeq(iter((1, 2)))
    assert str(info.value) == "signs must be +1 or -1, got (1, 2)"
    with pytest.raises(ValueError):
        EpsilonSeq(iter(()))


def test_eps_negate_involution():
    e = EpsilonSeq((1, -1, -1, 1))
    assert e.negate().signs == (-1, 1, 1, -1)
    assert e.negate().negate() == e


# -- template expansion ------------------------------------------------------


def test_reciprocal_word_frozen_examples():
    # expansions written out by hand from the template
    cases = {
        (1,): "abaB",
        (-1,): "aBab",
        (1, 1): "ababaBaB",
        (1, -1): "abaBabaB",
        (1, 1, -1): "ababaBabaBaB",
        (-1, -1, 1): "aBaBabaBabab",
    }
    for eps, expected in cases.items():
        nf = reciprocal_word(EpsilonSeq(eps))
        assert str(nf.word) == expected
        assert len(nf.word) == 4 * len(eps)


def test_normal_form_letters_spell_the_template_in_tuple_order():
    for t in range(1, 11):
        assert list(normal_form_letters(t)) == [
            reciprocal_word(EpsilonSeq(s)).word.letters
            for s in itertools.product((1, -1), repeat=t)
        ]


def test_composition_letters_spell_the_word_of_the_signs():
    # signs from +1, changing after each part: the same letters as the
    # object route, and the run sequence gives the parts back
    for t in range(1, 11):
        for comp in enumerate_compositions(t):
            eps = EpsilonSeq(itertools.chain.from_iterable(
                itertools.repeat(sign, part)
                for sign, part in zip(itertools.cycle((1, -1)), comp.parts)
            ))
            assert composition_letters(comp.parts) == reciprocal_word(eps).word.letters
            assert run_sequence(eps) == comp


@pytest.mark.parametrize("parts", [(), (0,), (2, -1), (1, True), (1.0,), ("a",)])
def test_composition_letters_reject_what_is_not_a_run_sequence(parts):
    with pytest.raises(ValueError, match="nonempty positive ints"):
        composition_letters(parts)


def test_normal_form_letters_checks_t_before_it_yields():
    with pytest.raises(ValueError) as info:
        normal_form_letters(0)
    assert str(info.value) == "t must be >= 1, got 0"


def test_reciprocal_word_is_reduced():
    for t in range(1, 7):
        for tup in itertools.product((1, -1), repeat=t):
            assert reciprocal_word(EpsilonSeq(tup)).word.is_reduced()


@given(signs)
def test_epsilon_of_round_trip(eps):
    assert epsilon_of(reciprocal_word(eps).word) == eps


def test_epsilon_of_rejects_non_normal():
    with pytest.raises(NotNormalForm):
        epsilon_of(GroupWord.from_string(""))
    with pytest.raises(NotNormalForm):
        epsilon_of(GroupWord.from_string("ab"))  # length not 4t
    with pytest.raises(NotNormalForm):
        epsilon_of(GroupWord.from_string("baaB"))  # wrong alternation
    # right length and alternation, but suffix does not negate the prefix
    with pytest.raises(NotNormalForm):
        epsilon_of(GroupWord.from_string("abab"))
    # t = 2: negated but not reversed
    with pytest.raises(NotNormalForm):
        epsilon_of(GroupWord.from_string("ababaBab"))


def test_epsilon_of_accepts_exactly_the_normal_forms():
    # every word of length up to 8: the accepted ones are the 2 + 4
    # reciprocal normal forms, each giving back the tuple that built it,
    # and every rejection names the check that failed
    forms = {
        letters(reciprocal_word(EpsilonSeq(tup)).word): tup
        for t in (1, 2)
        for tup in itertools.product((1, -1), repeat=t)
    }
    accepted = {}
    for n in range(9):
        for tup in itertools.product(ALPHABET, repeat=n):
            text = "".join(tup)
            try:
                signs = epsilon_of(GroupWord(tup)).signs
            except NotNormalForm as exc:
                if n == 0 or n % 4:
                    assert str(exc).startswith("syllable length"), text
                elif text[::2] != "a" * (n // 2) or "a" in text[1::2]:
                    assert str(exc).startswith("expected"), text
                else:
                    assert str(exc).startswith("suffix"), text
            else:
                accepted[text] = signs
    assert accepted == forms


def test_suffix_is_reversed_negated_prefix():
    eps = EpsilonSeq((1, 1, -1, 1))
    w = reciprocal_word(eps).word
    prefix = GroupWord(w.syllables[: 2 * eps.t])
    suffix = GroupWord(w.syllables[2 * eps.t :])
    # suffix = reversed negation of prefix means a * prefix^-1 * a == suffix
    rebuilt = reduce_word(GroupWord(("a",)) * prefix.inverse() * GroupWord(("a",)))
    assert rebuilt.syllables == suffix.syllables


# -- projectivization --------------------------------------------------------


def test_projectivize_canonical_leading_sign():
    e = EpsilonSeq((-1, 1))
    assert projectivize(e).canonical.signs == (1, -1)
    assert projectivize(e.negate()) == projectivize(e)


def test_projectivize_is_two_to_one():
    for t in range(1, 6):
        tuples = [EpsilonSeq(tup) for tup in itertools.product((1, -1), repeat=t)]
        classes = {projectivize(e) for e in tuples}
        assert len(classes) == 2 ** (t - 1)


# -- run sequences -----------------------------------------------------------


def test_run_sequence_frozen_example():
    eps = EpsilonSeq((1, 1, 1, -1, 1, -1, -1, 1))
    assert run_sequence(eps).parts == (3, 1, 1, 2, 1)


@given(signs)
def test_run_sequence_total_is_t(eps):
    assert run_sequence(eps).total == eps.t


@given(signs)
def test_run_sequence_negation_invariant(eps):
    assert run_sequence(eps) == run_sequence(eps.negate())


def test_run_sequence_distinguishes_projective_classes():
    # on tuples with leading +1 the run sequence is injective
    for t in range(1, 8):
        reps = [
            EpsilonSeq((1,) + tup) for tup in itertools.product((1, -1), repeat=t - 1)
        ]
        seqs = {run_sequence(e).parts for e in reps}
        assert len(seqs) == len(reps)


def test_composition_validation():
    with pytest.raises(ValueError):
        Composition((2, 0, 1))
    assert Composition(()).total == 0


@pytest.mark.parametrize("parts", [(1.5,), (2.0, 1), ("a",), (None,), (1, True)])
def test_composition_rejects_parts_that_are_not_ints(parts):
    # a float part would give a float total, and a string or None would
    # fail the comparison with a TypeError instead
    with pytest.raises(ValueError, match="positive ints"):
        Composition(parts)


def test_composition_reads_any_iterable_of_parts():
    c = Composition((1, 2))
    assert Composition([1, 2]) == c
    assert hash(Composition([1, 2])) == hash(c)
    assert Composition(iter((1, 2))).total == 3
    assert Composition(p for p in (1, 2)).parts == (1, 2)
    with pytest.raises(ValueError):
        Composition(iter((1, 0)))


def test_excursion_parts():
    c = Composition((3, 1, 1, 2, 1))
    assert excursion_parts(c, 1) == 2
    assert excursion_parts(c, 2) == 1
    assert excursion_parts(c, 3) == 0
    with pytest.raises(ValueError):
        excursion_parts(c, 0)


# -- free reduction ----------------------------------------------------------


def test_reduce_word_frozen_cases():
    cases = {
        "": "1",
        "aa": "1",
        "bb": "B",
        "BB": "b",
        "bB": "1",
        "abba": "aBa",
        "abBa": "1",
        "aabbb": "1",
        "babab": "babab",
    }
    for raw, expected in cases.items():
        assert str(reduce_word(GroupWord.from_string(raw))) == expected


@given(raw_words)
def test_reduce_word_idempotent_and_reduced(w):
    r = reduce_word(w)
    assert r.is_reduced()
    assert reduce_word(r) == r
    assert len(r) <= len(w)


@given(st.one_of(raw_words, reduced_words))
def test_reduce_word_matches_stack_reference(w):
    reduced = reduce_word(w)
    assert letters(reduced) == stack_reduced(letters(w))
    assert reduced.is_reduced()
    assert w.is_reduced() == (letters(w) == stack_reduced(letters(w)))


def test_reduce_word_matches_stack_reference_on_every_short_word():
    # all 9841 words of up to 8 letters, reduced or not
    for n in range(9):
        for syllables in itertools.product(ALPHABET, repeat=n):
            assert letters(reduce_word(GroupWord(syllables))) == stack_reduced("".join(syllables))


def test_is_reduced_matches_stack_reference_on_every_short_word():
    # on a reduced word the stack in reduce_word gives back the same letters,
    # so a false "not reduced" goes unseen in its tests
    for n in range(9):
        for syllables in itertools.product(ALPHABET, repeat=n):
            text = "".join(syllables)
            assert GroupWord(text).is_reduced() == (stack_reduced(text) == text), text


@given(raw_words)
def test_reduce_of_w_winv_is_identity(w):
    assert str(reduce_word(w * w.inverse())) == "1"


def test_word_from_a_string_is_its_letters():
    from cuspcensus.matrices import evaluate

    word, letters = GroupWord("abaB"), GroupWord(("a", "b", "a", "B"))
    assert word == letters and hash(word) == hash(letters)
    assert word.syllables == ("a", "b", "a", "B")
    assert evaluate(word) == evaluate(letters)
    assert GroupWord("ab") * GroupWord(("a",)) == GroupWord("aba")
    with pytest.raises(ValueError, match="'x'"):
        GroupWord("abx")


def test_word_from_any_iterable_is_the_word_of_its_string():
    from cuspcensus.matrices import evaluate

    word = GroupWord("abaB")
    for same in (GroupWord(["a", "b", "a", "B"]), GroupWord(iter("abaB")),
                 GroupWord(c for c in "abaB")):
        assert same == word and hash(same) == hash(word)
        assert str(same) == "abaB" and same.syllables == word.syllables
        assert evaluate(same) == evaluate(word)
        assert same * same == word * word
    assert str(GroupWord(iter(()))) == "1"
    with pytest.raises(ValueError, match="'x'"):
        GroupWord(c for c in "axb")


def test_inverse_reverses_and_flips():
    w = GroupWord.from_string("abaB")
    assert str(w.inverse()) == "baBa"
    assert str(w.inverse().inverse()) == str(w)


# -- cyclic canonical form ---------------------------------------------------


def test_canonical_cyclic_form_rotations_agree():
    w = reciprocal_word(EpsilonSeq((1, 1, -1))).word
    canon = canonical_cyclic_form(w)
    n = len(w)
    for i in range(n):
        rot = GroupWord(w.syllables[i:] + w.syllables[:i])
        assert canonical_cyclic_form(rot) == canon


@given(raw_words, raw_words)
def test_canonical_cyclic_form_conjugation_invariant(w, g):
    conj = g * w * g.inverse()
    assert canonical_cyclic_form(conj) == canonical_cyclic_form(w)


@given(st.one_of(raw_words, reduced_words, signs.map(lambda e: reciprocal_word(e).word)))
def test_canonical_cyclic_form_is_the_least_rotation(w):
    assert letters(canonical_cyclic_form(w)) == least_rotation(letters(w))


def test_canonical_cyclic_form_is_the_least_rotation_of_every_short_word():
    # every word over {a, b, B} of length <= 8: all-b and all-B words,
    # runs of b that wrap around the end, and periodic ties among the runs
    total = 0
    for n in range(9):
        for word in itertools.product(ALPHABET, repeat=n):
            text = "".join(word)
            assert letters(canonical_cyclic_form(GroupWord(word))) == least_rotation(text)
            total += 1
    assert total == 9841


def test_canonical_cyclic_form_breaks_ties_between_longest_runs():
    # alternating words with up to ten b-letters: from five on, two longest
    # runs of b can be followed by different letters, so the first run
    # found is not always the start of the least rotation
    for m in range(1, 11):
        for b_letters in itertools.product("bB", repeat=m):
            text = "a" + "a".join(b_letters)
            for rotated in (text, text[1:] + text[0]):
                canon = canonical_cyclic_form(GroupWord.from_string(rotated))
                assert letters(canon) == least_rotation(rotated)


def test_canonical_letters_validate_like_a_word():
    with pytest.raises(ValueError) as word:
        GroupWord("abx")
    with pytest.raises(ValueError) as text:
        canonical_letters("abx")
    assert str(text.value) == str(word.value)
    assert canonical_letters(("B", "a", "b", "a", "B", "a")) == "abaBaB"
    assert canonical_letters("") == "" and str(canonical_cyclic_form(GroupWord(""))) == "1"


def test_canonical_cyclic_form_separates_nonconjugates():
    # the two projective classes at t = 2 are not conjugate
    w1 = reciprocal_word(EpsilonSeq((1, 1))).word
    w2 = reciprocal_word(EpsilonSeq((1, -1))).word
    assert canonical_cyclic_form(w1) != canonical_cyclic_form(w2)


def test_reversed_negated_tuple_gives_conjugate_word():
    # reversing and negating the tuple rotates the word by half, so the two
    # normal forms are conjugate
    for t in range(1, 6):
        for tup in itertools.product((1, -1), repeat=t):
            e = EpsilonSeq(tup)
            w = reciprocal_word(e).word
            f = EpsilonSeq(tuple(-s for s in reversed(tup)))
            v = reciprocal_word(f).word
            assert v.syllables == w.syllables[2 * t :] + w.syllables[: 2 * t]
            assert canonical_cyclic_form(v) == canonical_cyclic_form(w)


def test_canonical_classes_count_small_t():
    # 2^t tuples fall into exactly 2^(t-1) conjugacy classes, each of size 2
    for t in range(1, 8):
        groups = {}
        for tup in itertools.product((1, -1), repeat=t):
            w = reciprocal_word(EpsilonSeq(tup)).word
            groups.setdefault(str(canonical_cyclic_form(w)), []).append(tup)
        assert len(groups) == 2 ** (t - 1)
        assert all(len(v) == 2 for v in groups.values())
