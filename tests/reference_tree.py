"""Reference front end: the tree parser and the recursive evaluator that the
postfix code and its flat loop replaced.

``tokenize`` reads the source one character at a time, ``parse`` builds a
tree of frozen dataclasses from its tokens by recursive descent and
``evaluate`` walks it by recursion, one call per node.  They share only
the value classes, the diagnostics and the arithmetic with the package, so
a difference in value, error kind, operation, span or message between this
front end and ``transfinita.evaluate(transfinita.parse(s))`` is a
front-end defect.  Lines must be shallow: this pair nests Python frames
per level.

Moving values along the tower is the front end's too, so this module keeps
its own copy of the type ladders that ``expr``'s tower tables replaced:
``_level``, ``promote``, ``as_ordinal``, ``as_surrational`` and
``value_equal``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from transfinita.cuts import (
    GaussianSurRational,
    RationalCut,
    RootClassification,
    RootCut,
    check_root,
    classify_root_cut,
    cut_member,
    cx_add,
    cx_div,
    cx_eq,
    cx_mul,
    cx_neg,
    cx_sub,
)
from transfinita.errors import DivisionByZero, NotRepresentable, TransfinitaError, Undefined
from transfinita.expr import DEFAULT_AMBIENT, CutHandle, EvalError
from transfinita.hyper import DEFAULT_CONTEXT, hyperop, tetration
from transfinita.natural import nat_add, nat_mul
from transfinita.ordinal import (
    OMEGA,
    Ordinal,
    OrdinalClass,
    classify,
    rec_add,
    rec_mul,
    rec_pow,
    rec_sub_left,
)
from transfinita.parser import Diagnostic, ParseError
from transfinita.surinteger import SurInteger, neg as si_neg, si_add, si_mul, si_sub, to_ordinal
from transfinita.surrational import (
    SurRational,
    exact_divide,
    from_surinteger,
    q_add,
    q_div,
    q_eq,
    q_mul,
    q_neg,
    q_sub,
)

Span = Optional[tuple]


_LEVELS = {Ordinal: 0, SurInteger: 1, SurRational: 2, GaussianSurRational: 3}


def _level(v):
    try:
        return _LEVELS[type(v)]
    except KeyError:
        raise Undefined(f"{v!r} is not a numeric value") from None


def promote(v, level):
    """Lift a numeric value to the given tower level (never downward)."""
    cur = _level(v)
    while cur < level:
        if cur == 0:
            v = SurInteger.from_ordinal(v)
        elif cur == 1:
            v = from_surinteger(v)
        else:
            v = GaussianSurRational(v, SurRational(0))
        cur += 1
    return v


def as_ordinal(v):
    """Demote a numeric value to an ordinal if it is exactly one."""
    if isinstance(v, Ordinal):
        return v
    if isinstance(v, SurInteger):
        o = to_ordinal(v)
        if o is not None:
            return o
    elif isinstance(v, SurRational):
        c = exact_divide(v.num, v.den)
        if isinstance(c, SurInteger):
            return as_ordinal(c)
    elif isinstance(v, GaussianSurRational):
        if v.im.is_zero:
            return as_ordinal(v.re)
    raise Undefined(f"{v!r} is not an ordinal")


def as_surrational(v):
    v = promote(v, max(_level(v), 2))
    if isinstance(v, GaussianSurRational):
        if not v.im.is_zero:
            raise Undefined("a real (non-complex) value is required here")
        return v.re
    return v


def value_equal(u, v):
    """Equality across tower levels (cross-multiplied where fractions occur)."""
    if isinstance(u, bool) or isinstance(v, bool):
        return u is v
    if isinstance(u, (OrdinalClass, RootClassification)) or isinstance(
        v, (OrdinalClass, RootClassification)
    ):
        if isinstance(u, RootClassification) and isinstance(v, RootClassification):
            if u.kind != v.kind:
                return False
            if u.witness is None or v.witness is None:
                return u.witness is v.witness
            return q_eq(u.witness, v.witness)
        return u == v
    lvl = max(_level(u), _level(v))
    u, v = promote(u, lvl), promote(v, lvl)
    if lvl <= 1:
        return u == v
    if lvl == 2:
        return q_eq(u, v)
    return cx_eq(u, v)


@dataclass(frozen=True)
class NatLiteral:
    value: int
    span: Span = field(default=None, compare=False)


@dataclass(frozen=True)
class Omega:
    span: Span = field(default=None, compare=False)


@dataclass(frozen=True)
class Eps0Sentinel:
    span: Span = field(default=None, compare=False)


@dataclass(frozen=True)
class UnaryNeg:
    operand: object
    span: Span = field(default=None, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    lhs: object
    rhs: object
    span: Span = field(default=None, compare=False)


@dataclass(frozen=True)
class HyperApp:
    index: object
    a: object
    b: object
    span: Span = field(default=None, compare=False)


@dataclass(frozen=True)
class FuncApp:
    name: str
    args: tuple
    span: Span = field(default=None, compare=False)


@dataclass(frozen=True)
class Var:
    ident: str
    span: Span = field(default=None, compare=False)


def tokenize(source):
    """The per-character tokenizer that the compiled pattern replaced, kept
    as the reference for its lexical rules: ``(kind, text, line, col)``
    tuples, kind one of "num", "ident", "op", ending with one
    ``("end", "", line, col)``."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdecimal():
            j = i
            while j < n and source[j].isdecimal():
                j += 1
            tokens.append(("num", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        two = source[i : i + 2]
        if two in ("+.", "-.", "*.", "^^"):
            tokens.append(("op", two, line, start_col))
            i += 2
            col += 2
            continue
        if ch in "+-*/^()[],":
            tokens.append(("op", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(Diagnostic(f"unexpected character {ch!r}", line, col))
    tokens.append(("end", "", line, col))
    return tokens


_SUM_OPS = frozenset(("+", "-", "+.", "-."))
_PROD_OPS = frozenset(("*", "*.", "/"))
_POW_OPS = frozenset(("^", "^^"))


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def fail(self, message: str, expected=()):
        _, _, line, col = self.tokens[self.pos]
        raise ParseError(Diagnostic(message, line, col, tuple(expected)))

    def expect(self, text: str) -> None:
        got = self.tokens[self.pos][1]
        if got != text:
            self.fail(f"unexpected {got or 'end of input'!r}", expected=(repr(text),))
        self.pos += 1

    def parse_sum(self):
        lhs = self.parse_product()
        t = self.tokens[self.pos]
        while t[1] in _SUM_OPS:
            self.pos += 1
            lhs = BinOp(t[1], lhs, self.parse_product(), span=t[2:])
            t = self.tokens[self.pos]
        return lhs

    parse_expr = parse_sum

    def parse_product(self):
        lhs = self.parse_unary()
        t = self.tokens[self.pos]
        while t[1] in _PROD_OPS:
            self.pos += 1
            lhs = BinOp(t[1], lhs, self.parse_unary(), span=t[2:])
            t = self.tokens[self.pos]
        return lhs

    def parse_unary(self):
        t = self.tokens[self.pos]
        if t[1] == "-":
            self.pos += 1
            return UnaryNeg(self.parse_unary(), span=t[2:])
        lhs = self.parse_atom()
        t = self.tokens[self.pos]
        if t[1] in _POW_OPS:
            self.pos += 1
            return BinOp(t[1], lhs, self.parse_unary(), span=t[2:])
        return lhs

    def parse_atom(self):
        kind, text, line, col = self.tokens[self.pos]
        span = (line, col)
        if kind == "num":
            self.pos += 1
            try:
                value = int(text)
            except ValueError:
                raise ParseError(Diagnostic(
                    f"number literal is too long ({len(text)} digits)", line, col
                )) from None
            return NatLiteral(value, span=span)
        if kind == "ident":
            self.pos += 1
            if text == "w":
                return Omega(span=span)
            if text == "eps0":
                return Eps0Sentinel(span=span)
            nxt = self.tokens[self.pos][1]
            if nxt == "[":
                self.pos += 1
                bracket = self.parse_expr()
                self.expect("]")
                self.expect("(")
                args = self.parse_args()
                self.expect(")")
                if text == "H":
                    if len(args) != 2:
                        self.fail("H[...] takes exactly two arguments")
                    return HyperApp(bracket, args[0], args[1], span=span)
                return FuncApp(text, (bracket, *args), span=span)
            if nxt == "(":
                self.pos += 1
                args = self.parse_args()
                self.expect(")")
                return FuncApp(text, tuple(args), span=span)
            return Var(text, span=span)
        if text == "(":
            self.pos += 1
            first = self.parse_expr()
            if self.tokens[self.pos][1] == ",":
                self.pos += 1
                second = self.parse_expr()
                self.expect(")")
                return FuncApp("complex", (first, second), span=span)
            self.expect(")")
            return first
        self.fail(
            f"unexpected {text or 'end of input'!r}",
            expected=("number", "'w'", "'eps0'", "name", "'('", "'-'"),
        )

    def parse_args(self) -> list:
        if self.tokens[self.pos][1] == ")":
            return []
        args = [self.parse_expr()]
        while self.tokens[self.pos][1] == ",":
            self.pos += 1
            args.append(self.parse_expr())
        return args


def parse(source: str):
    p = _Parser(tokenize(source))
    e = p.parse_expr()
    kind, text, line, col = p.tokens[p.pos]
    if kind != "end":
        raise ParseError(Diagnostic(f"trailing input starting at {text!r}", line, col))
    return e


def evaluate(e, env=None, ctx=DEFAULT_CONTEXT, ambient=DEFAULT_AMBIENT):
    if isinstance(e, NatLiteral):
        return Ordinal(e.value)
    if isinstance(e, Omega):
        return OMEGA
    if isinstance(e, Eps0Sentinel):
        raise EvalError(
            NotRepresentable("the boundary sentinel has no finite normal form"),
            "eps0",
            e.span,
        )
    if isinstance(e, Var):
        if env and e.ident in env:
            return env[e.ident]
        raise EvalError(Undefined(f"unbound name {e.ident!r}"), "name", e.span)
    if isinstance(e, UnaryNeg):
        v = evaluate(e.operand, env, ctx, ambient)
        try:
            lvl = max(_level(v), 1)
            v = promote(v, lvl)
            return (None, si_neg, q_neg, cx_neg)[lvl](v)
        except TransfinitaError as err:
            raise EvalError(err, "-", e.span) from err
    if isinstance(e, BinOp):
        x = evaluate(e.lhs, env, ctx, ambient)
        y = evaluate(e.rhs, env, ctx, ambient)
        try:
            return _binop(e.op, x, y, ctx)
        except EvalError:
            raise
        except TransfinitaError as err:
            raise EvalError(err, e.op, e.span) from err
    if isinstance(e, HyperApp):
        idx = evaluate(e.index, env, ctx, ambient)
        a = evaluate(e.a, env, ctx, ambient)
        b = evaluate(e.b, env, ctx, ambient)
        try:
            return hyperop(as_ordinal(idx), as_ordinal(a), as_ordinal(b), ctx)
        except TransfinitaError as err:
            raise EvalError(err, "H", e.span) from err
    if isinstance(e, FuncApp):
        return _funcapp(e, env, ctx, ambient)
    raise Undefined(f"cannot evaluate {e!r}")


_NAT_DISPATCH = {
    "+": (nat_add, si_add, q_add, cx_add),
    "*": (nat_mul, si_mul, q_mul, cx_mul),
}


def _binop(op, x, y, ctx):
    if op in ("+", "*"):
        lvl = max(_level(x), _level(y))
        fn = _NAT_DISPATCH[op][lvl]
        return fn(promote(x, lvl), promote(y, lvl))
    if op == "-":
        lvl = max(_level(x), _level(y), 1)
        fn = (None, si_sub, q_sub, cx_sub)[lvl]
        return fn(promote(x, lvl), promote(y, lvl))
    if op == "/":
        if max(_level(x), _level(y)) == 3:
            return cx_div(promote(x, 3), promote(y, 3))
        p, q = as_surrational(x), as_surrational(y)
        if q.is_zero:
            raise DivisionByZero("division by zero")
        return q_div(p, q)
    a, b = as_ordinal(x), as_ordinal(y)
    if op == "+.":
        return rec_add(a, b)
    if op == "-.":
        return rec_sub_left(a, b)
    if op == "*.":
        return rec_mul(a, b)
    if op == "^":
        return rec_pow(a, b, ctx.max_digits)
    if op == "^^":
        return tetration(a, b, ctx)
    raise Undefined(f"unknown operator {op!r}")


def _funcapp(e, env, ctx, ambient):
    args = [evaluate(a, env, ctx, ambient) for a in e.args]
    try:
        if e.name == "complex":
            if len(args) != 2:
                raise Undefined("complex takes a real part and an imaginary part")
            return GaussianSurRational(as_surrational(args[0]), as_surrational(args[1]))
        if e.name == "sqrt":
            if len(args) != 2:
                raise Undefined("sqrt takes a bracketed degree and a radicand")
            n, q = int(as_ordinal(args[0])), as_surrational(args[1])
            check_root(q, n)
            return CutHandle(q, n)
        if e.name == "member":
            if len(args) not in (2, 3):
                raise Undefined("member takes a cut, an element and an optional lambda")
            lam = as_ordinal(args[2]) if len(args) == 3 else ambient
            cut = args[0]
            if isinstance(cut, CutHandle):
                spec = RootCut(cut.q, cut.n, lam)
            else:
                spec = RationalCut(as_surrational(cut), lam)
            return cut_member(spec, as_surrational(args[1]), ctx.max_digits)
        if e.name == "classify":
            if len(args) != 1:
                raise Undefined("classify takes one argument")
            v = args[0]
            if isinstance(v, CutHandle):
                return classify_root_cut(RootCut(v.q, v.n, ambient))
            return classify(as_ordinal(v))
        raise Undefined(f"unknown function {e.name!r}")
    except EvalError:
        raise
    except TransfinitaError as err:
        raise EvalError(err, e.name, e.span) from err
