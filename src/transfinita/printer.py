"""Canonical printing and the versioned JSON tree encoding of values.

``print_canonical`` emits the unique text form that parses back to the same
value; the JSON trees mirror the normal forms with coefficients as decimal
strings so arbitrary-precision survives any JSON reader.  ``VALUE_TYPES``
is the one table of value types: each maps to its ``:type`` word, its JSON
tag, its canonical printer and its tree encoder.
"""

from __future__ import annotations

from .cuts import GaussianSurRational, RootClassification
from .errors import Undefined
from .expr import CutHandle
from .ordinal import Ordinal, OrdinalClass, ordinal_str
from .surinteger import SurInteger, surinteger_str
from .surrational import SurRational, surrational_str

JSON_SCHEMA = "1"


def ordinal_tree(terms) -> dict:
    """Tree of a term sequence: an ordinal, or the terms of a surinteger."""
    return {"terms": [{"exp": ordinal_tree(e), "coeff": str(c)} for e, c in terms]}


def surrational_tree(p: SurRational) -> dict:
    return {
        "num": ordinal_tree(p.num.terms),
        "den": ordinal_tree(p.den.terms),
        "reduced": p.reduced,
    }


def _root_classification_str(v: RootClassification) -> str:
    if v.kind == "surrational":
        return f"Surrational({surrational_str(v.witness)})"
    return v.kind.capitalize()


def _root_classification_tree(v: RootClassification) -> dict:
    if v.witness is None:
        return {"kind": v.kind}
    return {"kind": v.kind, "witness": surrational_tree(v.witness)}


# exact type -> (:type word, JSON "type" tag, canonical printer, tree body)
VALUE_TYPES = {
    bool: ("boolean", "bool", lambda v: "true" if v else "false", lambda v: {"value": v}),
    Ordinal: ("ordinal", "ordinal", ordinal_str, ordinal_tree),
    SurInteger: ("surinteger", "surinteger", surinteger_str, lambda v: ordinal_tree(v.terms)),
    SurRational: ("surrational", "surrational", surrational_str, surrational_tree),
    GaussianSurRational: (
        "gaussian",
        "gaussian",
        lambda v: f"({surrational_str(v.re)}, {surrational_str(v.im)})",
        lambda v: {"re": surrational_tree(v.re), "im": surrational_tree(v.im)},
    ),
    OrdinalClass: (
        "classification",
        "classification",
        lambda v: v.value.capitalize(),
        lambda v: {"value": v.value},
    ),
    RootClassification: (
        "classification",
        "root-classification",
        _root_classification_str,
        _root_classification_tree,
    ),
    CutHandle: (
        "cut",
        "cut",
        lambda v: f"sqrt[{v.n}]({surrational_str(v.q)})",
        lambda v: {"n": str(v.n), "radicand": surrational_tree(v.q)},
    ),
}


def print_canonical(v) -> str:
    """Unique text form per value; parse . print is the identity on values."""
    entry = VALUE_TYPES.get(type(v))
    if entry is None:
        raise Undefined(f"no canonical form for {v!r}")
    return entry[2](v)


def value_tree(v) -> dict:
    """Tagged JSON tree for any printable value."""
    entry = VALUE_TYPES.get(type(v))
    if entry is None:
        raise Undefined(f"no JSON form for {v!r}")
    return {"type": entry[1], **entry[3](v)}
