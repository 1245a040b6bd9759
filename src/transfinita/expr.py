"""Value model, and the evaluator of postfix code.

Values promote strictly upward: ordinal -> surinteger -> surrational ->
gaussian.  A value lowers one level only when it is exactly a value of that
level: a surinteger with no negative coefficient, a fraction whose
denominator divides its numerator, a pair whose imaginary part is zero.
The bare operators ``+ * -`` are the natural (commutative) operations at
whatever level the operands meet; the dot-suffixed operators ``+. -. *.``
and the powers ``^ ^^`` are the recursive ordinal operations and require
operands that demote exactly to ordinals.  ``a -. b`` is left subtraction:
the unique g with ``a +. g == b``.

:func:`parser.parse` emits an expression as postfix code: a list of
``(tag, span, arg)`` instructions, operands before their operation.

    tag      arg               stack effect
    "const"  the value         push it (literals, ``w``, and the natural
                               sums, products and powers of ``w`` of
                               constants, which the parser folds)
    "op"     operator text     pop two, push the result
    "neg"    None              negate the top
    "H"      None              pop index, a, b; push ``H[index](a, b)``
    "call"   (name, nargs)     pop nargs arguments, push the result
    "var"    the name          push its binding
    "eps0"   None              raise: the sentinel has no value
    "save"   a phrase's head   keep the top as that phrase's value
    "load"   a phrase's head   push the value kept for that phrase

:func:`run` executes the code in one loop over a value stack, so no depth
of nesting costs Python frames.  Arithmetic errors are re-raised as
:class:`EvalError`, which tags the originating operation and the source
span of the offending instruction.
"""

from __future__ import annotations

from operator import eq

from .cuts import (
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
from .errors import NOT_DIVISIBLE, NotRepresentable, TransfinitaError, Undefined
from .hyper import DEFAULT_CONTEXT, EvalContext, hyperop, tetration
from .natural import nat_add, nat_mul
from .ordinal import OMEGA, Ordinal, OrdinalClass, classify, rec_add, rec_mul, rec_pow, rec_sub_left
from .ordinal import _Frozen, _set
from .surinteger import SurInteger, neg as si_neg, si_add, si_mul, si_sub, to_ordinal
from .surrational import (
    Q_ZERO,
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

Span = "tuple | None"  # (line, col) of an instruction's token


class CutHandle(_Frozen):
    """Intermediate value of ``sqrt[n](q)`` awaiting member()/classify()."""

    __slots__ = ("q", "n")

    def __init__(self, q: SurRational, n: int):
        _set(self, "q", q)
        _set(self, "n", n)


# the value types, for annotations, which stay strings: typing is not loaded
Value = (
    "Ordinal | SurInteger | SurRational | GaussianSurRational | bool"
    " | OrdinalClass | RootClassification | CutHandle"
)


class EvalError(TransfinitaError):
    """An arithmetic error tagged with its operation and source span."""

    def __init__(self, origin: TransfinitaError, operation: str, span: Span):
        self.origin = origin
        self.operation = operation
        self.span = span
        where = f" at {span[0]}:{span[1]}" if span else ""
        super().__init__(f"{type(origin).__name__} in {operation}{where}: {origin}")


# The value tower, one entry per level: _UP[l] lifts a level-l value to
# level l + 1, and _DOWN[l] lowers it to level l - 1 when it is exactly such
# a value (the lowering rule of the module docstring), or gives None.
_LEVELS = {Ordinal: 0, SurInteger: 1, SurRational: 2, GaussianSurRational: 3}
_UP = (SurInteger.from_ordinal, from_surinteger, lambda q: GaussianSurRational(q, Q_ZERO))
_DOWN = (
    None,
    to_ordinal,
    lambda q: None if (c := exact_divide(q.num, q.den)) is NOT_DIVISIBLE else c,
    lambda z: z.re if z.im.is_zero else None,
)

# The natural operators, unary minus and value equality, one flat row each
# (bench/layertrace.py swaps functions one container deep): the lowest level
# the operator works at, then its function at levels 0 to 3.  Operands meet
# at the highest of their levels and that floor.
_NATURAL = {
    "+": (0, nat_add, si_add, q_add, cx_add),
    "*": (0, nat_mul, si_mul, q_mul, cx_mul),
    "-": (1, None, si_sub, q_sub, cx_sub),
    "/": (2, None, None, q_div, cx_div),
    "neg": (1, None, si_neg, q_neg, cx_neg),
    "==": (0, eq, eq, q_eq, cx_eq),
}


def _level(v: Value) -> int:
    try:
        return _LEVELS[type(v)]
    except KeyError:
        raise Undefined(f"{v!r} is not a numeric value") from None


def promote(v: Value, level: int) -> Value:
    """Lift a numeric value to the given tower level (never downward)."""
    for up in _UP[_level(v) : level]:
        v = up(v)
    return v


def as_ordinal(v: Value) -> Ordinal:
    """Demote a numeric value to an ordinal if it is exactly one."""
    lvl = _LEVELS.get(type(v))
    while lvl:
        lower = _DOWN[lvl](v)
        if lower is None:
            break
        v, lvl = lower, lvl - 1
    if lvl == 0:
        return v
    raise Undefined(f"{v!r} is not an ordinal")


def as_surrational(v: Value) -> SurRational:
    if _level(v) < 3:
        return promote(v, 2)
    re = _DOWN[3](v)
    if re is None:
        raise Undefined("a real (non-complex) value is required here")
    return re


def _natural(op: str, x: Value, y: Value):
    row = _NATURAL[op]
    lvl = max(_level(x), _level(y), row[0])
    return row[1 + lvl](promote(x, lvl), promote(y, lvl))


def value_equal(u: Value, v: Value) -> bool:
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
    return _natural("==", u, v)


DEFAULT_AMBIENT = rec_pow(OMEGA, OMEGA)


def evaluate(
    code: list,
    env: dict | None = None,
    ctx: EvalContext = DEFAULT_CONTEXT,
    ambient: Ordinal = DEFAULT_AMBIENT,
) -> Value:
    """Evaluate the postfix code of one expression (see :func:`run`)."""
    return run(code, env, ctx, ambient)[-1]


# The operation an error reports, for the tags whose argument is not it
_OPERATION = {"neg": "-", "H": "H", "var": "name", "eps0": "eps0"}


def run(
    code: list,
    env: dict | None = None,
    ctx: EvalContext = DEFAULT_CONTEXT,
    ambient: Ordinal = DEFAULT_AMBIENT,
) -> list:
    """Run postfix code from :func:`parser.parse`; return the value stack.

    One loop over the instructions: each pops its operands and pushes its
    result, so nesting and length cost stack entries, not Python frames.
    ``env`` holds named bindings (the REPL's ``:let``); ``ambient`` is the
    truncation point used by ``member()`` when no explicit one is given.
    """
    stack = []
    push, pop = stack.append, stack.pop
    saved = {}  # the values of the repeated phrases, by their heads
    for tag, span, arg in code:
        if tag == "const":
            push(arg)
            continue
        try:
            if tag == "op":
                y = pop()
                stack[-1] = _binop(arg, stack[-1], y, ctx)
            elif tag == "neg":
                v = stack[-1]
                row = _NATURAL["neg"]
                lvl = max(_level(v), row[0])
                stack[-1] = row[1 + lvl](promote(v, lvl))
            elif tag == "call":
                name, n = arg
                args = stack[len(stack) - n :]
                del stack[len(stack) - n :]
                push(_call(name, args, ambient, ctx))
            elif tag == "H":
                b, a = pop(), pop()
                stack[-1] = hyperop(as_ordinal(stack[-1]), as_ordinal(a), as_ordinal(b), ctx)
            elif tag == "var":
                if not env or arg not in env:
                    raise Undefined(f"unbound name {arg!r}")
                push(env[arg])
            elif tag == "save":
                saved[arg] = stack[-1]
            elif tag == "load":
                push(saved[arg])
            else:
                raise NotRepresentable("the boundary sentinel has no finite normal form")
        except TransfinitaError as err:
            operation = arg if tag == "op" else arg[0] if tag == "call" else _OPERATION[tag]
            raise EvalError(err, operation, span) from err
    return stack


def _binop(op: str, x: Value, y: Value, ctx: EvalContext) -> Value:
    if op in _NATURAL:
        return _natural(op, x, y)
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


def _call(name: str, args: list, ambient: Ordinal, ctx: EvalContext) -> Value:
    if name == "complex":
        if len(args) != 2:
            raise Undefined("complex takes a real part and an imaginary part")
        return GaussianSurRational(as_surrational(args[0]), as_surrational(args[1]))
    if name == "sqrt":
        if len(args) != 2:
            raise Undefined("sqrt takes a bracketed degree and a radicand")
        n, q = int(as_ordinal(args[0])), as_surrational(args[1])
        check_root(q, n)
        return CutHandle(q, n)
    if name == "member":
        if len(args) not in (2, 3):
            raise Undefined("member takes a cut, an element and an optional lambda")
        lam = as_ordinal(args[2]) if len(args) == 3 else ambient
        cut = args[0]
        if isinstance(cut, CutHandle):
            spec = RootCut(cut.q, cut.n, lam)
        else:
            spec = RationalCut(as_surrational(cut), lam)
        return cut_member(spec, as_surrational(args[1]), ctx.max_digits)
    if name == "classify":
        if len(args) != 1:
            raise Undefined("classify takes one argument")
        v = args[0]
        if isinstance(v, CutHandle):
            return classify_root_cut(RootCut(v.q, v.n, ambient))
        return classify(as_ordinal(v))
    raise Undefined(f"unknown function {name!r}")
