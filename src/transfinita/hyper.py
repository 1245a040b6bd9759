"""The transfinite hyperoperation tower on its finitely-notatable fragment.

``hyperop(i, a, b)`` climbs successor -> addition -> multiplication ->
exponentiation -> tetration -> ...; index 0..3 dispatch to the closed-form
recursive operations, finite indices >= 4 unfold the tower recursion, and
index omega takes the diagonal over all finite indices (supported for
finite arguments, which is the only case with a defined closed answer here).

Limit second arguments are evaluated as suprema along the canonical cofinal
sequence of the limit (decrement the least-significant term, unfold one
omega).  The supremum of the sampled value sequence is taken symbolically:

* an eventually constant sequence is its own supremum;
* strictly increasing finite values climb to omega;
* a fixed shape whose trailing coefficient climbs bumps to the next power;
* a fixed shape whose trailing exponent climbs takes the exponent supremum;
* strictly growing nesting depth means the supremum has no finite normal
  form and raises NotRepresentable;
* anything else is refused as Unsupported rather than guessed.

Finite values are guarded by an explicit digit budget carried in
:class:`EvalContext` (never global state); towers that would not fit raise
ResourceExceeded before any huge integer is materialised.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import NotRepresentable, ResourceExceeded, Undefined, Unsupported
from .natural import ClosureKind, is_closure_number, next_closure
from .ordinal import (
    DEFAULT_MAX_DIGITS,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalClass,
    _make,
    classify,
    depth,
    predecessor,
    rec_add,
    rec_mul,
    rec_pow,
    successor,
)

# intermediate samples inside a supremum never need more room than this
_SUP_SAMPLE_DIGITS = 10**6
# cofinal samples taken to read off a supremum
_SUP_SAMPLES = 8
_TWO, _FOUR = Ordinal(2), Ordinal(4)


@dataclass(frozen=True)
class EvalContext:
    """Evaluation budget: the decimal-digit cap."""

    max_digits: int = DEFAULT_MAX_DIGITS


DEFAULT_CONTEXT = EvalContext()


def fundamental_sequence(b: Ordinal, k: int) -> Ordinal:
    """k-th member of the canonical increasing sequence cofinal in limit b."""
    if classify(b) is not OrdinalClass.LIMIT:
        raise Undefined("fundamental sequences exist only for limit ordinals")
    e, c = b[-1]
    prefix = b[:-1] + ((e, c - 1),) if c > 1 else b[:-1]
    return rec_add(_make(prefix), _omega_power_fs(e, k))


def _omega_power_fs(e: Ordinal, k: int) -> Ordinal:
    # canonical sequence below w^e, e >= 1
    if classify(e) is OrdinalClass.SUCCESSOR:
        if k == 0:
            return ZERO
        return _make(((predecessor(e), k),))
    return _make(((fundamental_sequence(e, k), 1),))


def _as_index(index) -> Ordinal:
    if isinstance(index, int):
        return Ordinal(index)
    return index


def hyperop(index, a: Ordinal, b: Ordinal, ctx: EvalContext = DEFAULT_CONTEXT) -> Ordinal:
    """Evaluate the index-th hyperoperation at (a, b).

    Index 0 is the successor of ``a`` (the second argument is ignored),
    1/2/3 are the recursive sum/product/power, finite indices from 4 unfold
    ``H[i](a, b) = H[i-1](a, H[i](a, b-1))``, and index omega diagonalises
    over the finite indices.  Raises NotRepresentable past the notation
    boundary, ResourceExceeded past the digit budget, and Unsupported for
    indices above omega or an omega index with transfinite arguments.
    """
    idx = _as_index(index)
    if idx.is_finite:
        n = int(idx)
        if n == 0:
            return successor(a)
        if n == 1:
            return rec_add(a, b)
        if n == 2:
            return rec_mul(a, b)
        if n == 3:
            return rec_pow(a, b, ctx.max_digits)
        return _finite_index(n, a, b, ctx)
    if idx == OMEGA:
        return _omega_index(a, b, ctx)
    raise Unsupported("hyperoperation indices above omega are not evaluated")


def tetration(a: Ordinal, b: Ordinal, ctx: EvalContext = DEFAULT_CONTEXT) -> Ordinal:
    """Iterated exponentiation, the index-4 hyperoperation."""
    return hyperop(4, a, b, ctx)


def _finite_index(n: int, a: Ordinal, b: Ordinal, ctx: EvalContext) -> Ordinal:
    if b.is_zero:
        return ONE
    if b == ONE:
        return a
    if a.is_finite and int(a) <= 1:
        m = int(a)
        if m == 1:
            return ONE
        # 0 composed at height >= 4 alternates 0/1; the union over a limit is 1
        if b.is_finite:
            return ONE if int(b) % 2 == 0 else ZERO
        return ONE
    if b.is_finite:
        # Shapes whose unfolding by the index alone would nest n - 3 calls
        # deep: go straight to where it ends.
        if a == _TWO and b == _TWO:
            return rec_pow(a, b, ctx.max_digits)  # H[n](2, 2) = 2^2 = 4
        if n >= 6:
            # The unfolding evaluates H[5](a, a) before anything else, or
            # H[5](2, 4) for a = 2, so whatever that raises is the answer.
            # A finite H[n](m, k) >= H[6](2, 3) = 2^^65536 is past every
            # digit budget.
            hyperop(5, a, _FOUR if a == _TWO else a, ctx)
            if a.is_finite:
                raise ResourceExceeded(f"H[{n}]({int(a)}, {int(b)}) is past every digit budget")
        # values are monotone in b, so on finite arguments the digit guard in
        # rec_pow fires after a handful of steps on anything that cannot fit
        v = a
        for _ in range(int(b) - 1):
            v = hyperop(n - 1, a, v, ctx)
        return v
    if classify(b) is OrdinalClass.SUCCESSOR:
        return hyperop(n - 1, a, hyperop(n, a, predecessor(b), ctx), ctx)
    return _sup_over_limit(lambda k, c: hyperop(n, a, fundamental_sequence(b, k), c), ctx)


def _omega_index(a: Ordinal, b: Ordinal, ctx: EvalContext) -> Ordinal:
    if b.is_zero:
        return ONE
    if b == ONE:
        return a
    if not (a.is_finite and b.is_finite):
        raise Unsupported(
            "the omega-indexed hyperoperation is evaluated for finite arguments only"
        )
    m, k = int(a), int(b)
    # supremum over all finite indices i of H[i](m, k), k >= 2:
    # the sequence is eventually constant only for degenerate bases.
    if m == 0:
        return Ordinal(k)
    if m == 1:
        return Ordinal(k + 1)
    if m == 2 and k == 2:
        return Ordinal(4)  # fixed point of every index
    return OMEGA


def _sup_over_limit(gen, ctx: EvalContext) -> Ordinal:
    sample_ctx = replace(ctx, max_digits=min(ctx.max_digits, _SUP_SAMPLE_DIGITS))
    vals = []
    for k in range(1, _SUP_SAMPLES + 1):
        try:
            vals.append(gen(k, sample_ctx))
        except ResourceExceeded:
            # the sample is finite but past the budget: a strictly growing
            # run of finite values along a cofinal sequence tops out at omega
            if len(vals) >= 2 and all(v.is_finite for v in vals) and _increasing(vals):
                return OMEGA
            raise
    tail = vals[-3:]
    if tail[0] == tail[1] == tail[2]:
        return tail[0]
    if all(v.is_finite for v in vals) and _increasing(vals):
        return OMEGA
    return _limit_of_samples(tail)


def _increasing(vals) -> bool:
    return all(x < y for x, y in zip(vals, vals[1:]))


def _limit_of_samples(tail, budget: int = 4) -> Ordinal:
    """Symbolic supremum of a strictly increasing sampled tail of length 3."""
    if budget == 0:
        raise Unsupported("no stable shape detected in the supremum sequence")
    if not _increasing(tail):
        raise Unsupported("supremum sequence is not monotone")
    if all(v.is_finite for v in tail):
        return OMEGA
    if depth(tail[0]) < depth(tail[1]) < depth(tail[2]):
        raise NotRepresentable("the supremum exceeds the notation boundary")
    x, y, z = tail
    if (
        len(x) == len(y) == len(z)
        and x[:-1] == y[:-1] == z[:-1]
    ):
        (ex, cx), (ey, cy), (ez, cz) = x[-1], y[-1], z[-1]
        prefix = _make(x[:-1])
        if ex == ey == ez and cx < cy < cz:
            return rec_add(prefix, _make(((successor(ex), 1),)))
        if ex < ey < ez:
            e_lim = _limit_of_samples([ex, ey, ez], budget - 1)
            return rec_add(prefix, _make(((e_lim, 1),)))
    raise Unsupported("no stable shape detected in the supremum sequence")


# closure kinds of indices 1, 2 and 3; every index from 3 on has those of 3
_CLOSURE_KINDS = (ClosureKind.NAT_ADD, ClosureKind.NAT_MUL, ClosureKind.EPSILON_EXP)


def _closure_kind(n: int) -> ClosureKind:
    if n < 1:
        raise Undefined(f"there are no index-{n} closure points to decide")
    return _CLOSURE_KINDS[min(n, 3) - 1]


def is_hyper_number(n: int, a: Ordinal) -> bool:
    """Closure of ``a`` under the index-n hyperoperation on pairs below it:
    the :mod:`.natural` table for addition (n = 1), multiplication (n = 2)
    and exponentiation (n >= 3, where only 0, 1, 2 and omega remain below
    the notation boundary)."""
    return is_closure_number(_closure_kind(n), a)


def next_hyper_number(n: int, a: Ordinal) -> Ordinal:
    """Least index-n closure point above ``a``: the index-(n+1) jump to omega."""
    return next_closure(_closure_kind(n), a)
