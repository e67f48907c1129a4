"""Tests for matrices: generators, PSL canonicalization, classification,
reciprocity."""

import ast
import functools
import itertools
import operator
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from cuspcensus.matrices import (
    GEN_A,
    GEN_B,
    GEN_B_INV,
    IDENTITY,
    Mat2Z,
    PSL2Element,
    classify,
    evaluate,
    factors_through_involution,
    reciprocity_check,
)
from cuspcensus.words import (
    _INVERSE,
    _PRODUCT,
    ALPHABET,
    EpsilonSeq,
    GroupWord,
    reciprocal_word,
    reduce_word,
)

raw_words = st.lists(st.sampled_from(ALPHABET), min_size=0, max_size=30).map(
    lambda xs: GroupWord(tuple(xs))
)


# -- integer matrices ---------------------------------------------------------


def test_det_validation():
    with pytest.raises(ValueError):
        Mat2Z(1, 0, 0, 2)
    with pytest.raises(ValueError):
        Mat2Z(0, 1, 1, 0)  # det -1


def test_generator_relations():
    assert GEN_A * GEN_A == -IDENTITY
    assert GEN_B * GEN_B * GEN_B == -IDENTITY
    assert GEN_B * GEN_B_INV == IDENTITY
    assert GEN_B * GEN_B == GEN_B_INV * -IDENTITY


def test_hand_computed_products():
    ab = GEN_A * GEN_B
    assert (ab.p, ab.q, ab.r, ab.s) == (-1, 0, 1, -1)
    abinv = GEN_A * GEN_B_INV
    assert (abinv.p, abinv.q, abinv.r, abinv.s) == (1, -1, 0, 1)
    abab = ab * abinv
    assert abab.trace == -3


def test_inverse_is_adjugate():
    m = GEN_A * GEN_B * GEN_A * GEN_B_INV
    assert m * m.inverse() == IDENTITY
    assert m.inverse() * m == IDENTITY
    assert m.inverse().trace == m.trace


@given(raw_words)
def test_trace_of_inverse_matches(w):
    m = IDENTITY
    for s in w.syllables:
        m = m * {"a": GEN_A, "b": GEN_B, "B": GEN_B_INV}[s]
    assert m.inverse().trace == m.trace
    assert m * m.inverse() == IDENTITY


# -- PSL canonicalization -----------------------------------------------------


def test_canonical_sign():
    assert PSL2Element.of(-IDENTITY) == PSL2Element.of(IDENTITY)
    assert PSL2Element.of(-IDENTITY).is_identity()
    m = Mat2Z(-1, 0, 1, -1)
    canon = PSL2Element.of(m)
    assert canon.rep == Mat2Z(1, 0, -1, 1)
    with pytest.raises(ValueError):
        PSL2Element(m)


@given(raw_words)
def test_negation_invisible_in_psl(w):
    m = evaluate(w)
    assert PSL2Element.of(-m.rep) == m


@given(raw_words, raw_words)
def test_evaluate_homomorphism(u, v):
    assert evaluate(u * v) == evaluate(u) * evaluate(v)


@given(raw_words)
def test_evaluate_commutes_with_reduction(w):
    assert evaluate(reduce_word(w)) == evaluate(w)


@given(raw_words)
def test_evaluate_equals_fold_of_generator_products(w):
    generator = {"a": GEN_A, "b": GEN_B, "B": GEN_B_INV}
    product = functools.reduce(operator.mul, (generator[s] for s in w.syllables), IDENTITY)
    assert evaluate(w) == PSL2Element.of(product)


def test_evaluate_equals_the_one_letter_fold_on_every_short_word():
    # lengths 0-7 end the four-letter fold on a tail of every length 1-3
    generator = {"a": GEN_A, "b": GEN_B, "B": GEN_B_INV}
    for n in range(8):
        for word in itertools.product(ALPHABET, repeat=n):
            product = functools.reduce(operator.mul, map(generator.get, word), IDENTITY)
            assert evaluate(GroupWord(word)) == PSL2Element.of(product)


def test_group_law_tables_agree_with_matrices():
    # each entry of the word layer's two tables holds in PSL(2, Z)
    for pair, product in _PRODUCT.items():
        assert evaluate(GroupWord(tuple(pair))) == evaluate(GroupWord(tuple(product)))
    for letter in ALPHABET:
        inverse = GroupWord((letter.translate(_INVERSE),))
        assert (evaluate(GroupWord((letter,))) * evaluate(inverse)).is_identity()


@given(raw_words)
def test_psl_inverse(w):
    m = evaluate(w)
    assert (m * m.inverse()).is_identity()
    assert m.inverse() == evaluate(w.inverse())
    assert m.inverse().trace_abs == m.trace_abs


# -- classification -----------------------------------------------------------


def test_classify_frozen_cases():
    cases = {
        "aa": "identity",
        "bbb": "identity",
        "a": "elliptic",
        "b": "elliptic",
        "bb": "elliptic",
        "ab": "parabolic",
        "aB": "parabolic",
        "ba": "parabolic",
        "abaB": "hyperbolic",
    }
    for text, expected in cases.items():
        assert classify(evaluate(GroupWord.from_string(text))) == expected


def test_reciprocal_words_are_hyperbolic():
    for t in range(1, 9):
        for tup in itertools.product((1, -1), repeat=t):
            w = reciprocal_word(EpsilonSeq(tup)).word
            assert classify(evaluate(w)) == "hyperbolic"


def test_trace_conjugation_invariant():
    g = GroupWord.from_string("babaB")
    for tup in itertools.product((1, -1), repeat=4):
        w = reciprocal_word(EpsilonSeq(tup)).word
        conj = g * w * g.inverse()
        assert evaluate(conj).trace_abs == evaluate(w).trace_abs


@given(raw_words)
def test_canonical_cyclic_form_preserves_trace(w):
    from cuspcensus.words import canonical_cyclic_form

    assert evaluate(canonical_cyclic_form(w)).trace_abs == evaluate(w).trace_abs


# -- trace growth oracles ------------------------------------------------------


def test_constant_sign_trace_is_quadratic():
    # w((+1,)*t) = P*a with P = (ab)^t a (ab)^-t; eliminating signs gives
    # trace t^2 + 2
    for t in range(1, 30):
        w = reciprocal_word(EpsilonSeq((1,) * t)).word
        assert evaluate(w).trace_abs == t * t + 2


def test_alternating_sign_trace_is_geometric():
    # w(+1,-1,+1,...) is the t-th power of the t=1 word, so its trace obeys
    # the Chebyshev-style recurrence x_t = 3 x_{t-1} - x_{t-2}
    x_prev, x = 2, 3
    signs = []
    for t in range(1, 60):
        signs.append(1 if t % 2 else -1)
        w = reciprocal_word(EpsilonSeq(tuple(signs))).word
        assert evaluate(w).trace_abs == x
        x_prev, x = x, 3 * x - x_prev


def test_entries_exceed_fixed_width():
    signs = tuple(1 if i % 2 == 0 else -1 for i in range(50))
    m = evaluate(reciprocal_word(EpsilonSeq(signs)).word)
    assert m.trace_abs > 2**63


# -- reciprocity ---------------------------------------------------------------


def test_reciprocity_check_small():
    assert reciprocity_check(EpsilonSeq((1,)))
    assert reciprocity_check(EpsilonSeq((-1,)))
    assert reciprocity_check(EpsilonSeq((1, -1)))


def test_reciprocity_check_exhaustive():
    for t in range(1, 11):
        for tup in itertools.product((1, -1), repeat=t):
            assert reciprocity_check(EpsilonSeq(tup))


def test_factorization_check_reads_the_given_value():
    for tup in [(1,), (1, -1), (-1, 1, 1)]:
        word = reciprocal_word(EpsilonSeq(tup)).word
        assert factors_through_involution(word, evaluate(word))
        assert not factors_through_involution(word, evaluate(GroupWord.from_string("ab")))


def test_reciprocal_element_conjugate_to_inverse():
    # P w P^-1 = w^-1 with P the involution from the factorization w = P a
    for tup in [(1,), (1, 1), (1, -1), (1, 1, -1), (-1, 1, -1, -1)]:
        eps = EpsilonSeq(tup)
        nf = reciprocal_word(eps)
        x = evaluate(GroupWord(nf.word.syllables[: 2 * eps.t]))
        a = evaluate(GroupWord.from_string("a"))
        p = x * a * x.inverse()
        w = evaluate(nf.word)
        assert p * w * p.inverse() == w.inverse()


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cuspcensus"


def test_matrices_route_shares_only_the_word_type_with_words():
    # suite_matrices checks the word layer against matrices' own products,
    # so evaluation may take the GroupWord value type from words and
    # nothing of its group law, directly or through a helper, class or
    # table of matrices
    tree = ast.parse((PACKAGE / "matrices.py").read_text(encoding="utf-8"))
    word_names = {"words", "_PRODUCT", "_INVERSE", "reduce_word", "canonical_cyclic_form"}
    defs = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "words":
            word_names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name):
                    defs[target.id] = node
    assert {"GroupWord", "reciprocal_word"} <= word_names
    for name in ("evaluate", "factors_through_involution"):
        used, reached, todo = set(), set(), [name]
        while todo:
            reached.add(top := todo.pop())
            for node in ast.walk(defs[top]):
                used.add(getattr(node, "id", getattr(node, "attr", None)))
                if isinstance(node, ast.Name) and node.id in defs.keys() - reached:
                    todo.append(node.id)
        assert {"_CHUNKS", "_build_chunks", "PSL2Element", "Mat2Z"} <= reached
        assert "GroupWord" in used and "letters" in used
        assert not used & (word_names - {"GroupWord"}), (name, used & word_names)
    tree = ast.parse((PACKAGE / "words.py").read_text(encoding="utf-8"))
    imported = {
        part
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for part in (getattr(node, "module", None), *(alias.name for alias in node.names))
    }
    assert not any("matrices" in (part or "") for part in imported), imported
