"""The contract of the small immutable value classes.

Each behaves as a frozen dataclass would: a ``Name(field=value, ...)`` repr
unless it defines its own, equality within its exact type and a hash, both
over its fields, an AttributeError on assignment, and copies and pickles
that come back equal.  The batch records print some of these reprs.
"""

import copy
import pickle

import pytest

from transfinita import (
    OMEGA,
    BaseExpansion,
    CoordinateForm,
    Diagnostic,
    EvalContext,
    GaussianSurRational,
    InvalidLambda,
    Ordinal,
    RationalCut,
    RootClassification,
    RootCut,
    SurInteger,
    SurRational,
    Undefined,
    base_expand,
    to_coordinates,
)
from transfinita.expr import CutHandle

from conftest import o

_Q2 = SurRational(2)
_HALF = SurRational(1, 2)

# (value, its repr, an equal value built anew, a value of the same class
# that differs in one field)
CASES = [
    (
        RationalCut(_HALF, OMEGA),
        "RationalCut(q=SurRational[1 / 2], lam=Ordinal[w])",
        RationalCut(SurRational(1, 2), OMEGA),
        RationalCut(_Q2, OMEGA),
    ),
    (
        RootCut(_Q2, 2, OMEGA),
        "RootCut(q=SurRational[2], n=2, lam=Ordinal[w])",
        RootCut(SurRational(2), 2, o("w")),
        RootCut(_Q2, 3, OMEGA),
    ),
    (
        RootClassification("surrational", _Q2),
        "Surrational(SurRational[2])",
        RootClassification("surrational", SurRational(2)),
        RootClassification("surrational", _HALF),
    ),
    (
        RootClassification("irrational"),
        "Irrational",
        RootClassification("irrational", None),
        RootClassification("inconclusive"),
    ),
    (
        GaussianSurRational(_HALF, _Q2),
        "Gaussian[SurRational[1 / 2], SurRational[2]]",
        GaussianSurRational(SurRational(1, 2), SurRational(2)),
        GaussianSurRational(_Q2, _HALF),
    ),
    (
        CutHandle(_Q2, 2),
        "CutHandle(q=SurRational[2], n=2)",
        CutHandle(SurRational(2), 2),
        CutHandle(_Q2, 3),
    ),
    (
        EvalContext(),
        "EvalContext(max_digits=1000000)",
        EvalContext(max_digits=10**6),
        EvalContext(max_digits=10),
    ),
    (
        base_expand(o("w^2 + 5"), Ordinal(2)),
        "BaseExpansion(base=Ordinal[2], digits=((Ordinal[w*2], Ordinal[1]), "
        "(Ordinal[2], Ordinal[1]), (Ordinal[0], Ordinal[1])))",
        BaseExpansion(Ordinal(2), ((o("w*2"), Ordinal(1)), (Ordinal(2), Ordinal(1)),
                                   (Ordinal(0), Ordinal(1)))),
        BaseExpansion(Ordinal(3), ()),
    ),
    (
        to_coordinates(SurInteger.from_terms(((Ordinal(1), 3), (Ordinal(0), -2)))),
        "CoordinateForm(negative=Ordinal[2], positive=Ordinal[w*3])",
        CoordinateForm(Ordinal(2), o("w*3")),
        CoordinateForm(Ordinal(2), OMEGA),
    ),
    (
        Diagnostic("unexpected ')'", 1, 4, ("a number",)),
        "Diagnostic(message=\"unexpected ')'\", line=1, col=4, expected=('a number',))",
        Diagnostic(message="unexpected ')'", line=1, col=4, expected=("a number",)),
        Diagnostic("unexpected ')'", 1, 4),
    ),
]
# the fields of each class, in the order its constructor takes them
FIELDS = {
    RationalCut: ("q", "lam"),
    RootCut: ("q", "n", "lam"),
    RootClassification: ("kind", "witness"),
    GaussianSurRational: ("re", "im"),
    CutHandle: ("q", "n"),
    EvalContext: ("max_digits",),
    BaseExpansion: ("base", "digits"),
    CoordinateForm: ("negative", "positive"),
    Diagnostic: ("message", "line", "col", "expected"),
}
IDS = [type(case[0]).__name__ + ("-" + case[0].kind if hasattr(case[0], "kind") else "")
       for case in CASES]


@pytest.mark.parametrize("value,text,_equal,_other", CASES, ids=IDS)
def test_repr(value, text, _equal, _other):
    assert repr(value) == text


def test_own_str():
    d = Diagnostic("unexpected ')'", 1, 4, ("a number", "w"))
    assert str(d) == "1:4: unexpected ')' (expected a number, w)"
    assert str(Diagnostic("trailing input", 2, 1)) == "2:1: trailing input"
    # the others print as their repr
    assert str(RootClassification("irrational")) == "Irrational"
    assert str(CutHandle(_Q2, 2)) == "CutHandle(q=SurRational[2], n=2)"


@pytest.mark.parametrize("value,_text,equal,other", CASES, ids=IDS)
def test_eq_and_hash(value, _text, equal, other):
    assert value == equal and not value != equal
    assert hash(value) == hash(equal)
    assert value != other and not value == other


@pytest.mark.parametrize("value,_text,_equal,_other", CASES, ids=IDS)
def test_unequal_to_another_type(value, _text, _equal, _other):
    fields = tuple(getattr(value, f) for f in FIELDS[type(value)])
    assert value != fields and fields != value
    assert value.__eq__(fields) is NotImplemented
    assert all(value != case[0] for case in CASES if type(case[0]) is not type(value))


def test_same_fields_in_another_class_are_unequal():
    x, y = Ordinal(2), OMEGA
    assert GaussianSurRational(x, y) != CoordinateForm(x, y)
    assert CoordinateForm(x, y) != CutHandle(x, y)
    assert CutHandle(x, y).__eq__(GaussianSurRational(x, y)) is NotImplemented


@pytest.mark.parametrize("value,_text,_equal,other", CASES, ids=IDS)
def test_assignment_raises(value, _text, _equal, other):
    for field in FIELDS[type(value)]:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(other, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value,text,_equal,_other", CASES, ids=IDS)
def test_copies_and_pickles(value, text, _equal, _other):
    pickled = (pickle.loads(pickle.dumps(value, p)) for p in (2, pickle.HIGHEST_PROTOCOL))
    for back in (copy.copy(value), copy.deepcopy(value), *pickled):
        assert type(back) is type(value)
        assert back == value and hash(back) == hash(value)
        assert repr(back) == text


class TestCutChecks:
    @pytest.mark.parametrize("lam", [Ordinal(0), Ordinal(5), o("w + 1"), o("w*2")])
    def test_bad_lambda(self, lam):
        with pytest.raises(InvalidLambda):
            RationalCut(_HALF, lam)
        with pytest.raises(InvalidLambda):
            RootCut(_Q2, 2, lam)

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_bad_degree(self, n):
        with pytest.raises(Undefined, match="n >= 2"):
            RootCut(_Q2, n, OMEGA)

    @pytest.mark.parametrize("q", [SurRational(0), SurRational(-2), SurRational(-1, 2)])
    def test_bad_radicand(self, q):
        with pytest.raises(Undefined, match="strictly positive radicand"):
            RootCut(q, 2, OMEGA)

    def test_lambda_is_checked_first(self):
        # a bad lambda is reported even when the degree is bad too
        with pytest.raises(InvalidLambda):
            RootCut(_Q2, 1, Ordinal(5))

    def test_defaults(self):
        assert RootClassification("irrational").witness is None
        assert Diagnostic("x", 1, 1).expected == ()
        assert EvalContext().max_digits == 10**6


class TestTowerValues:
    """SurInteger and SurRational are hashed by their fields, so they refuse
    assignment like the classes above, and copy and pickle to equal values."""

    VALUES = [
        (SurInteger(0), ("terms",), SurInteger(7)),
        (SurInteger.from_terms(((OMEGA, 2), (Ordinal(0), -3))), ("terms",), SurInteger(7)),
        (SurRational(-2, 3), ("num", "den"), SurRational(5, 7)),
        (SurRational(o("w + 1"), o("w*2")), ("num", "den"), _Q2),
    ]

    @pytest.mark.parametrize("value,fields,other", VALUES, ids=str)
    def test_assignment_and_deletion_raise(self, value, fields, other):
        before = hash(value)
        for field in fields:
            old = getattr(value, field)
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(value, field, getattr(other, field))
            with pytest.raises(AttributeError, match="cannot delete"):
                delattr(value, field)
            assert getattr(value, field) is old
        with pytest.raises(AttributeError):
            value.extra = 1
        assert hash(value) == before

    def test_a_hashed_fraction_stays_findable(self):
        q = SurRational(1, 2)
        table = {q: "half"}
        with pytest.raises(AttributeError):
            q.num = SurInteger(5)
        assert table[SurRational(1, 2)] == "half"

    @pytest.mark.parametrize("value,fields,_other", VALUES, ids=str)
    def test_copies_and_pickles(self, value, fields, _other):
        pickled = (pickle.loads(pickle.dumps(value, p)) for p in (2, pickle.HIGHEST_PROTOCOL))
        for back in (copy.copy(value), copy.deepcopy(value), *pickled):
            assert type(back) is type(value)
            assert all(getattr(back, f) == getattr(value, f) for f in fields)
            assert back == value and hash(back) == hash(value)
