"""Canonical printing and the versioned JSON tree encoding of values.

``print_canonical`` emits the unique text form that parses back to the same
value; the JSON trees mirror the normal forms with coefficients as decimal
strings so arbitrary-precision survives any JSON reader.
"""

from __future__ import annotations

from .cuts import GaussianSurRational, RootClassification
from .errors import Undefined
from .expr import CutHandle
from .ordinal import Ordinal, OrdinalClass, ordinal_str
from .ordinal import _make as _make_ordinal
from .surinteger import SurInteger, surinteger_str
from .surinteger import _make as _make_si
from .surrational import SurRational, surrational_str

JSON_SCHEMA = "1"


def print_canonical(v) -> str:
    """Unique text form per value; parse . print is the identity on values."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Ordinal):
        return ordinal_str(v)
    if isinstance(v, SurInteger):
        return surinteger_str(v)
    if isinstance(v, SurRational):
        return surrational_str(v)
    if isinstance(v, GaussianSurRational):
        return f"({surrational_str(v.re)}, {surrational_str(v.im)})"
    if isinstance(v, OrdinalClass):
        return v.value.capitalize()
    if isinstance(v, RootClassification):
        if v.kind == "surrational":
            return f"Surrational({surrational_str(v.witness)})"
        return v.kind.capitalize()
    if isinstance(v, CutHandle):
        return f"sqrt[{v.n}]({surrational_str(v.q)})"
    raise Undefined(f"no canonical form for {v!r}")


def ordinal_tree(o: Ordinal) -> dict:
    return {"terms": [{"exp": ordinal_tree(e), "coeff": str(c)} for e, c in o]}


def ordinal_from_tree(tree: dict) -> Ordinal:
    terms = tuple(
        (ordinal_from_tree(t["exp"]), int(t["coeff"])) for t in tree["terms"]
    )
    return _make_ordinal(terms)


def surinteger_tree(a: SurInteger) -> dict:
    return {"terms": [{"exp": ordinal_tree(e), "coeff": str(c)} for e, c in a.terms]}


def surinteger_from_tree(tree: dict) -> SurInteger:
    terms = tuple(
        (ordinal_from_tree(t["exp"]), int(t["coeff"])) for t in tree["terms"]
    )
    return _make_si(terms)


def surrational_tree(p: SurRational) -> dict:
    return {
        "num": surinteger_tree(p.num),
        "den": surinteger_tree(p.den),
        "reduced": p.reduced,
    }


def surrational_from_tree(tree: dict) -> SurRational:
    return SurRational(
        surinteger_from_tree(tree["num"]),
        surinteger_from_tree(tree["den"]),
        reduced=bool(tree.get("reduced", False)),
    )


def value_tree(v) -> dict:
    """Tagged JSON tree for any printable value."""
    if isinstance(v, bool):
        return {"type": "bool", "value": v}
    if isinstance(v, Ordinal):
        return {"type": "ordinal", **ordinal_tree(v)}
    if isinstance(v, SurInteger):
        return {"type": "surinteger", **surinteger_tree(v)}
    if isinstance(v, SurRational):
        return {"type": "surrational", **surrational_tree(v)}
    if isinstance(v, GaussianSurRational):
        return {
            "type": "gaussian",
            "re": surrational_tree(v.re),
            "im": surrational_tree(v.im),
        }
    if isinstance(v, OrdinalClass):
        return {"type": "classification", "value": v.value}
    if isinstance(v, RootClassification):
        out = {"type": "root-classification", "kind": v.kind}
        if v.witness is not None:
            out["witness"] = surrational_tree(v.witness)
        return out
    if isinstance(v, CutHandle):
        return {"type": "cut", "n": str(v.n), "radicand": surrational_tree(v.q)}
    raise Undefined(f"no JSON form for {v!r}")
