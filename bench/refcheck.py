"""Independent reference values and the record checker.

Nothing here calls transfinita's arithmetic.  Ordinals are plain nested
tuples ``((exp, coeff), ...)`` in Cantor normal form, exponents descending;
Python's tuple order on that shape is exactly the normal-form order, so no
compare routine is needed.

Values built by ``+ - * /`` and complex pairs are checked by evaluation at
a random point (Schwartz-Zippel).  Natural sum adds Cantor-normal-form
coefficients componentwise, so ``w^e`` with ``e = w^z1*k1 + w^z2*k2 + ...``
maps to the monomial ``x_z1^k1 * x_z2^k2 * ...`` with one variable
``x_z = w^(w^z)`` per exponent ``z``.  That map is a ring homomorphism from
the natural operations to ``Z[x_z]``, extended to fractions and Gaussian
pairs.  Both the generator's expression tree and the record's JSON tree are
evaluated at the same point with exact ``Fraction`` arithmetic, so two
surrationals compare by value and never by their text or ``reduced`` flag.

Recursive operations are checked against closed forms the generator knows
(expected values given as tuples); see corpus.py.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

ZERO: tuple = ()
ONE = ((ZERO, 1),)
W = ((ONE, 1),)
LEVEL_TYPES = ("ordinal", "surinteger", "surrational", "gaussian")


class Bad(Exception):
    """A record that breaks the schema or a normal-form invariant."""


def ord_int(n: int) -> tuple:
    return ((ZERO, n),) if n else ZERO


def tower(k: int) -> tuple:
    """w ^^ k: w^(w^(...)) with k omegas (1 for k = 0)."""
    o = ONE
    for _ in range(k):
        o = ((o, 1),)
    return o


def _is_finite(o: tuple) -> bool:
    return not o or (len(o) == 1 and not o[0][0])


# ---------------------------------------------------------------- text forms


def _term_text(e: tuple, c: int) -> str:
    if not e:
        return str(c)
    if e == ONE:
        body = "w"
    elif _is_finite(e):
        body = f"w^{e[0][1]}"
    elif e == W:
        body = "w^w"
    else:
        body = f"w^({ord_text(e)})"
    return body if c == 1 else f"{body}*{c}"


def ord_text(o: tuple) -> str:
    """Canonical ordinal text, e.g. ``w^(w^2)*3 + w*2 + 7``."""
    if not o:
        return "0"
    return " + ".join(_term_text(e, c) for e, c in o)


def si_text(terms: tuple) -> str:
    """Canonical signed text, e.g. ``w^2*2 - w*3 + 1``."""
    if not terms:
        return "0"
    parts = []
    for i, (e, c) in enumerate(terms):
        body = _term_text(e, abs(c))
        if i == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# ------------------------------------------------------- point evaluation


class Point:
    """A random point: one large integer per variable x_z, drawn on demand."""

    def __init__(self, seed):
        self._rng = random.Random(f"point:{seed}")
        self._vals: dict = {}

    def x(self, z: tuple) -> int:
        v = self._vals.get(z)
        if v is None:
            v = self._vals[z] = self._rng.randrange(1 << 40, 1 << 41)
        return v

    def mono(self, e: tuple) -> int:
        r = 1
        for z, k in e:
            r *= self.x(z) ** k
        return r

    def poly(self, terms: tuple) -> int:
        return sum(c * self.mono(e) for e, c in terms)


def _cx(v):
    return v if isinstance(v, tuple) else (v, 0)


def _add(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        (ar, ai), (br, bi) = _cx(a), _cx(b)
        return (ar + br, ai + bi)
    return a + b


def _neg(a):
    if isinstance(a, tuple):
        return (-a[0], -a[1])
    return -a


def _mul(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        (ar, ai), (br, bi) = _cx(a), _cx(b)
        return (ar * br - ai * bi, ar * bi + ai * br)
    return a * b


def _div(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        br, bi = _cx(b)
        d = br * br + bi * bi
        if d == 0:
            raise ZeroDivisionError("reference divisor vanished at the point")
        re, im = _mul(a, (br, -bi))
        return (Fraction(re, d), Fraction(im, d))
    return Fraction(a) / b


def eval_ast(node, pt: Point):
    """Value of a generator expression tree at the point."""
    op = node[0]
    if op == "o":
        return pt.poly(node[1])
    if op == "neg":
        return _neg(eval_ast(node[1], pt))
    a, b = eval_ast(node[1], pt), eval_ast(node[2], pt)
    if op == "+":
        return _add(a, b)
    if op == "-":
        return _add(a, _neg(b))
    if op == "*":
        return _mul(a, b)
    if op == "/":
        return _div(a, b)
    if op == "cx":
        return (a, b)
    raise ValueError(f"unknown node {op!r}")


def ast_level(node) -> int:
    """Tower level the library must land on: promotion only goes upward."""
    op = node[0]
    if op == "o":
        return 1 if any(c < 0 for _, c in node[1]) else 0
    if op == "neg":
        return max(ast_level(node[1]), 1)
    if op == "cx":
        return 3
    la, lb = ast_level(node[1]), ast_level(node[2])
    if op == "-":
        return max(la, lb, 1)
    if op == "/":
        return 3 if max(la, lb) == 3 else 2
    return max(la, lb)


# ---------------------------------------------------------------- records


def _decode_hook(d: dict):
    """json object_hook: a term becomes ``(exponent, coeff)``, a tree
    ``{"terms": [...]}`` becomes its tuple of terms (a value keeps its dict
    with ``terms`` as a tuple), checking the normal-form invariants on the
    way: nonzero coefficients, positive ones inside exponents, exponents
    strictly decreasing."""
    if "coeff" in d:
        exp, c = d["exp"], int(d["coeff"])
        if not isinstance(exp, tuple) or c == 0 or any(k < 0 for _, k in exp):
            raise Bad(f"bad term {d!r:.80}")
        return (exp, c)
    terms = d.get("terms")
    if terms is None:
        return d
    terms = tuple(terms)
    for (e1, _), (e2, _) in zip(terms, terms[1:]):
        if not e1 > e2:
            raise Bad("exponents are not strictly decreasing")
    if len(d) == 1:
        return terms
    d["terms"] = terms
    return d


def decode(raw) -> dict:
    """Parse one record, turning its value trees into checked term tuples."""
    return json.loads(raw, object_hook=_decode_hook)


def _q_value(q: dict, pt: Point) -> Fraction:
    num, den = q["num"], q["den"]
    if not den or den[0][1] < 0:
        raise Bad("denominator must be positive")
    d = pt.poly(den)
    if d == 0:
        raise Bad("denominator vanished at the point")
    return Fraction(pt.poly(num), d)


def record_value(v: dict, pt: Point):
    """Point value of a decoded numeric record value."""
    t = v["type"]
    if t in ("ordinal", "surinteger"):
        return pt.poly(v["terms"])
    if t == "surrational":
        return _q_value(v, pt)
    if t == "gaussian":
        return (_q_value(v["re"], pt), _q_value(v["im"], pt))
    raise Bad(f"type {t!r} is not numeric")


def _eq(a, b) -> bool:
    return _cx(a) == _cx(b) if isinstance(a, tuple) or isinstance(b, tuple) else a == b


def _canonical(v: dict):
    """Canonical text implied by the record's own tree, where the text is
    unique per value; None for types whose text form may change (fractions
    print differently once reduction changes)."""
    t = v["type"]
    if t == "ordinal":
        return ord_text(v["terms"])
    if t == "surinteger":
        return si_text(v["terms"])
    if t == "bool":
        return "true" if v["value"] else "false"
    if t == "classification":
        return v["value"].capitalize()
    if t == "root-classification" and v["kind"] != "surrational":
        return v["kind"].capitalize()
    return None


# ----------------------------------------------------------------- checker


def check(raw, line: str, expect, pt: Point):
    """None when the record text ``raw`` is right for ``line``, else a reason."""
    try:
        return _check(decode(raw), line, expect, pt)
    except Bad as err:
        return f"malformed: {err}"
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as err:
        return f"malformed: {type(err).__name__}: {err}"


def _check(rec, line, expect, pt):
    if rec.get("schema") != "1" or rec.get("input") != line:
        return "schema tag or input echo is wrong"
    kind = expect[0]
    if "error" in rec:
        got = rec["error"]["kind"]
        if kind == "error" and got == expect[1]:
            return None
        if kind == "ord" and expect[2:] == (got,):
            return None
        return f"unexpected error {got}: {rec['error'].get('message')}"
    if kind == "error":
        return f"expected a {expect[1]} error, got a value"
    v = rec["value"]
    if v["type"] == "ordinal" and any(c < 0 for _, c in v["terms"]):
        raise Bad("negative coefficient in an ordinal")
    canon = _canonical(v)
    if canon is not None and rec["canonical"] != canon:
        return f"canonical text {rec['canonical'][:80]!r} does not match the value"
    if not isinstance(rec["canonical"], str) or not rec["canonical"]:
        return "canonical text missing"
    if kind == "value":
        _, ast, level = expect
        if v["type"] != LEVEL_TYPES[level]:
            return f"type {v['type']} where {LEVEL_TYPES[level]} was expected"
        if not _eq(record_value(v, pt), eval_ast(ast, pt)):
            return "value differs from the reference at the check point"
        return None
    if kind == "ord":
        if v["type"] != "ordinal":
            return f"type {v['type']} where ordinal was expected"
        if v["terms"] != expect[1]:
            return f"ordinal {rec['canonical'][:80]} differs from {ord_text(expect[1])[:80]}"
        return None
    if kind == "bool":
        if v["type"] != "bool" or v["value"] is not expect[1]:
            return f"expected {expect[1]}, got {rec['canonical']}"
        return None
    if kind == "class":
        if v["type"] != "classification" or v["value"] != expect[1]:
            return f"expected {expect[1]}, got {rec['canonical']}"
        return None
    if kind == "root":
        _, kinds, rad, n = expect
        if v["type"] != "root-classification" or v["kind"] not in kinds:
            return f"root classification {rec['canonical']} not in {sorted(kinds)}"
        if v["kind"] == "surrational":
            if v["witness"]["num"][0][1] < 0:
                return "root witness is negative"
            if _q_value(v["witness"], pt) ** n != eval_ast(rad, pt):
                return "root witness does not power up to the radicand"
        return None
    raise ValueError(f"unknown expectation {kind!r}")
