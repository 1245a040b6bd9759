"""Canonical printing and the versioned JSON encoding of values, in one walk.

``encode`` returns a value's JSON text and its canonical text together:
the canonical text is the unique form that parses back to the same value,
and the JSON mirrors the normal forms with coefficients as decimal strings
so arbitrary precision survives any JSON reader.  Within one value each
distinct exponent is rendered once.  ``VALUE_TYPES`` is the one table of
value types: each maps to its ``:type`` word, its JSON tag and its encoder.
"""

from __future__ import annotations

import json

from .cuts import GaussianSurRational, RootClassification
from .errors import Undefined
from .expr import CutHandle
from .ordinal import Ordinal, OrdinalClass, _encode_terms
from .surinteger import SurInteger
from .surrational import SurRational
from .surrational import _encode as _encode_fraction

JSON_SCHEMA = "1"


def _encode_ordinal(terms, memo) -> tuple:
    js, text = _encode_terms(terms, memo)
    return f'"terms": {js}', text


def _encode_gaussian(v: GaussianSurRational, memo) -> tuple:
    re_j, re_s = _encode_fraction(v.re, memo)
    im_j, im_s = _encode_fraction(v.im, memo)
    return f'"re": {{{re_j}}}, "im": {{{im_j}}}', f"({re_s}, {im_s})"


def _encode_root_classification(v: RootClassification, memo) -> tuple:
    if v.witness is None:
        return f'"kind": {json.dumps(v.kind)}', v.kind.capitalize()
    js, text = _encode_fraction(v.witness, memo)
    return f'"kind": {json.dumps(v.kind)}, "witness": {{{js}}}', f"Surrational({text})"


def _encode_cut(v: CutHandle, memo) -> tuple:
    js, text = _encode_fraction(v.q, memo)
    return f'"n": "{v.n}", "radicand": {{{js}}}', f"sqrt[{v.n}]({text})"


# exact type -> (:type word, JSON "type" tag, encoder); an encoder maps the
# value and a fresh memo to its JSON members after "type" and its text
VALUE_TYPES = {
    bool: (
        "boolean",
        "bool",
        lambda v, memo: ('"value": true', "true") if v else ('"value": false', "false"),
    ),
    Ordinal: ("ordinal", "ordinal", _encode_ordinal),
    SurInteger: ("surinteger", "surinteger", lambda v, memo: _encode_ordinal(v.terms, memo)),
    SurRational: ("surrational", "surrational", _encode_fraction),
    GaussianSurRational: ("gaussian", "gaussian", _encode_gaussian),
    OrdinalClass: (
        "classification",
        "classification",
        lambda v, memo: (f'"value": {json.dumps(v.value)}', v.value.capitalize()),
    ),
    RootClassification: ("classification", "root-classification", _encode_root_classification),
    CutHandle: ("cut", "cut", _encode_cut),
}


def encode(v) -> tuple:
    """``(JSON text, canonical text)`` of any printable value, from one walk."""
    entry = VALUE_TYPES.get(type(v))
    if entry is None:
        raise Undefined(f"no canonical form for {v!r}")
    fields, text = entry[2](v, {})
    return f'{{"type": "{entry[1]}", {fields}}}', text


def print_canonical(v) -> str:
    """Unique text form per value; parse . print is the identity on values."""
    return encode(v)[1]


def value_tree(v) -> dict:
    """Tagged JSON tree for any printable value: ``encode``'s JSON, decoded."""
    return json.loads(encode(v)[0])
