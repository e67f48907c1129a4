"""The fourteen record types on the value base: equality and hash by
fields within one class, immutability, the repr, copy and pickle, and an
import that brings in no dataclasses, inspect or tempfile."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cuspcensus._contract import Value
from cuspcensus.census import Check, CensusRow, Table1Row, VerificationReport
from cuspcensus.matrices import IDENTITY, Mat2Z, PSL2Element
from cuspcensus.spectral import AlphaEnclosure, ConstantEnclosure, TermReport, solve_alpha
from cuspcensus.words import (
    Composition,
    EpsilonSeq,
    GroupWord,
    ProjectiveEpsilonSeq,
    ReciprocalNormalForm,
)

ROOT = Path(__file__).resolve().parents[1]

_ALPHA2 = solve_alpha(2, Fraction(1, 10**6))
_ALPHA3 = solve_alpha(3, Fraction(1, 10**6))
_CHECK = Check("row_sum", (4, 2), 8, 8, 0, False, "within", True)

# each type with the fields of two unequal values, in __slots__ order
SAMPLES = [
    (EpsilonSeq, ((1, -1, 1),), ((1, 1),)),
    (ProjectiveEpsilonSeq, (EpsilonSeq((1, -1)),), (EpsilonSeq((1,)),)),
    (GroupWord, ("abaB",), ("ab",)),
    (ReciprocalNormalForm, (EpsilonSeq((1,)), GroupWord("abaB")),
     (EpsilonSeq((-1,)), GroupWord("aBab"))),
    (Composition, ((2, 1),), ((),)),
    (Mat2Z, (2, 1, 1, 1), (1, 0, 0, 1)),
    (PSL2Element, (Mat2Z(2, 1, 1, 1),), (IDENTITY,)),
    (AlphaEnclosure, (2, _ALPHA2.lo, _ALPHA2.hi), (3, _ALPHA3.lo, _ALPHA3.hi)),
    (ConstantEnclosure, (Fraction(1, 3), Fraction(1, 2)), (Fraction(0), Fraction(1))),
    (TermReport, (2, 1, 0.5, ((1, 0.0, 0.0, 0.0),)), (2, 1, 0.25, ((1, 0.0, 0.0, 0.0),))),
    (CensusRow, (5, 2, 1, 8, "dp"), (5, 2, 1, 8, "oracle")),
    (Check, ("row_sum", (4, 2), 8, 8, 0, False, "within", True),
     ("row_sum", (4, 2), 8, 9, 0, False, "within", False)),
    (VerificationReport, ("partition", (_CHECK,)), ("partition", ())),
    (Table1Row, ("all", 4, None, None, 8, None), ("low_lying", 4, 2, None, 5, 4.97)),
]
IDS = [cls.__name__ for cls, _, _ in SAMPLES]


def fields(value):
    return tuple(getattr(value, name) for name in type(value).__slots__)


def test_the_samples_are_every_value_type():
    assert {cls for cls, _, _ in SAMPLES} == set(Value.__subclasses__())
    assert len(SAMPLES) == 14


@pytest.mark.parametrize("cls, args, other", SAMPLES, ids=IDS)
def test_equal_and_hashed_by_fields(cls, args, other):
    a, b = cls(*args), cls(*args)
    assert a is not b
    assert fields(a) == args
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(args)
    # keywords, by the names of the slots, build the same value
    assert cls(**dict(zip(cls.__slots__, args))) == a
    c = cls(*other)
    assert a != c and not a == c
    assert len({a, b, c}) == 2


@pytest.mark.parametrize("cls, args, other", SAMPLES, ids=IDS)
def test_unequal_across_types(cls, args, other):
    a = cls(*args)
    for other_cls, other_args, _ in SAMPLES:
        if other_cls is not cls:
            b = other_cls(*other_args)
            assert a != b and not a == b
            assert a.__eq__(b) is NotImplemented
    # nor equal to the tuple of its fields
    assert a != args and a.__eq__(args) is NotImplemented


@pytest.mark.parametrize("cls, args, other", SAMPLES, ids=IDS)
def test_assignment_and_deletion_raise(cls, args, other):
    a = cls(*args)
    for name, value in zip(cls.__slots__, other):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        object.__setattr__(a, "extra", 1)  # slotted: no __dict__ to hold it
    assert fields(a) == args


@pytest.mark.parametrize("cls, args, other", SAMPLES, ids=IDS)
def test_repr_names_each_field(cls, args, other):
    pairs = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__slots__, args))
    assert repr(cls(*args)) == f"{cls.__name__}({pairs})"


def test_repr_examples():
    assert repr(Mat2Z(2, 1, 1, 1)) == "Mat2Z(p=2, q=1, r=1, s=1)"
    assert repr(PSL2Element(IDENTITY)) == "PSL2Element(rep=Mat2Z(p=1, q=0, r=0, s=1))"
    assert repr(GroupWord("ab")) == "GroupWord(letters='ab')"
    assert repr(CensusRow(5, 2, 1, 8, "dp")) == "CensusRow(t=5, D=2, n=1, count=8, source='dp')"


@pytest.mark.parametrize("cls, args, other", SAMPLES, ids=IDS)
def test_copy_and_pickle_round_trip(cls, args, other):
    a = cls(*args)
    copies = [copy.copy(a), copy.deepcopy(a)] + [
        pickle.loads(pickle.dumps(a, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for b in copies:
        assert type(b) is cls and b == a and hash(b) == hash(a)
        assert repr(b) == repr(a)


def test_copies_are_rebuilt_through_the_checks():
    # a value reduces to its class and fields, so unpickling runs __init__
    assert Mat2Z(2, 1, 1, 1).__reduce__() == (Mat2Z, (2, 1, 1, 1))
    # at protocol 2 the field p = 2 is pickled as BININT1 2; made 3, the
    # determinant is 2
    forged = pickle.dumps(Mat2Z(2, 1, 1, 1), 2).replace(b"K\x02", b"K\x03", 1)
    with pytest.raises(ValueError, match="determinant"):
        pickle.loads(forged)


def test_solve_alpha_sets_the_fields_the_checked_route_does():
    for D in (2, 3, 7):
        a = solve_alpha(D)
        assert type(a) is AlphaEnclosure
        assert a == AlphaEnclosure(a.D, a.lo, a.hi)
        with pytest.raises(AttributeError):
            a.lo = a.hi


@pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
def test_import_brings_in_no_dataclasses_inspect_or_tempfile(flags):
    # a fresh interpreter: pytest itself has imported inspect here; under -S
    # no site hook has imported tempfile before the package does
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, *flags, str(ROOT / "tools" / "import_footprint.py")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "none of dataclasses, inspect, tempfile" in proc.stdout


def test_import_footprint_names_what_it_finds(tmp_path):
    # a package that imports dataclasses is named by the check
    package = tmp_path / "cuspcensus"
    package.mkdir()
    (package / "__init__.py").write_text("import dataclasses\n")
    (package / "cli.py").write_text("")
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, "-S", str(ROOT / "tools" / "import_footprint.py")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert "added dataclasses, inspect" in proc.stderr

