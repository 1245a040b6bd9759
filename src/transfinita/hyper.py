"""The transfinite hyperoperation tower on its finitely-notatable fragment.

``hyperop(i, a, b)`` climbs successor -> addition -> multiplication ->
exponentiation -> tetration -> ...; index 0..3 dispatch to the closed-form
recursive operations, finite indices >= 4 unfold the tower recursion on
finite heights, and index omega takes the supremum over all finite indices.

Below epsilon-zero every value at a transfinite height, or at index omega,
has a closed form read off the closure points: ``w`` for a finite base of at
least 2, NotRepresentable for a transfinite base (``a ^^ w`` is already
epsilon-zero), and the parity of the height's finite part for base 0.

Finite values are guarded by an explicit digit budget carried in
:class:`EvalContext` (never global state); towers that would not fit raise
ResourceExceeded before any huge integer is materialised.
"""

from __future__ import annotations

from .errors import NotRepresentable, ResourceExceeded, Undefined, Unsupported
from .natural import ClosureKind, is_closure_number, next_closure
from .ordinal import (
    DEFAULT_MAX_DIGITS,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    _check_depth,
    _Frozen,
    _depth,
    _pow,
    _set,
    rec_add,
    rec_mul,
    rec_pow,
    successor,
)

_TWO, _FOUR = Ordinal(2), Ordinal(4)
_PAST_BOUNDARY = "the supremum exceeds the notation boundary"


class EvalContext(_Frozen):
    """Evaluation budget: the decimal-digit cap.  Immutable: another budget
    is another ``EvalContext(max_digits=...)``."""

    __slots__ = ("max_digits",)

    def __init__(self, max_digits: int = DEFAULT_MAX_DIGITS):
        _set(self, "max_digits", max_digits)


DEFAULT_CONTEXT = EvalContext()


def _as_index(index) -> Ordinal:
    if isinstance(index, int):
        return Ordinal(index)
    return index


def hyperop(index, a: Ordinal, b: Ordinal, ctx: EvalContext = DEFAULT_CONTEXT) -> Ordinal:
    """Evaluate the index-th hyperoperation at (a, b).

    Index 0 is the successor of ``a`` (the second argument is ignored),
    1/2/3 are the recursive sum/product/power, finite indices from 4 unfold
    ``H[i](a, b) = H[i-1](a, H[i](a, b-1))`` at finite heights and take
    closed forms at transfinite ones, and index omega is the supremum over
    the finite indices.  Raises NotRepresentable past the notation
    boundary, ResourceExceeded past the digit budget, and Unsupported for
    indices above omega.
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
    if a == ONE:
        return ONE
    if a.is_zero:
        # 0 composed at height >= 4 toggles 0/1 at every successor and is 1 at
        # limits, so only the parity of the finite part of b counts
        return ZERO if b[-1][0].is_zero and b[-1][1] % 2 else ONE
    if not a.is_finite and (n >= 5 or not b.is_finite):
        # a ^^ w is epsilon-zero, and for n >= 5, H[n](a, 2) = H[n-1](a, a) >= a ^^ w
        raise NotRepresentable(_PAST_BOUNDARY)
    if not b.is_finite:
        # m^w = w, so by induction on n: H[n](m, w) = w,
        # H[n](m, b+1) = H[n-1](m, H[n](m, b)) = H[n-1](m, w) = w, and a
        # supremum of w's is w
        return OMEGA
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
        raise ResourceExceeded(f"H[{n}]({int(a)}, {int(b)}) is past every digit budget")
    if not a.is_finite:
        # n = 4 here, and a ^^ k nests exactly depth(a) + k - 1 levels: one
        # check up front spares each step rec_pow's walk of the result,
        # which would make the tower quadratic
        _check_depth(_depth(a) + int(b) - 1)
    # values are monotone in b, so on finite arguments the digit guard in
    # the power step fires after a handful of steps on anything that cannot fit
    v = a
    for _ in range(int(b) - 1):
        v = _pow(a, v, ctx.max_digits) if n == 4 else hyperop(n - 1, a, v, ctx)
    return v


def _omega_index(a: Ordinal, b: Ordinal, ctx: EvalContext) -> Ordinal:
    # the supremum over the finite indices; b >= 2 past the base rows
    if b.is_zero:
        return ONE
    if b == ONE:
        return a
    if not a.is_finite:
        # index 5 already leaves the notation: H[5](a, 2) = a ^^ a >= a ^^ w
        raise NotRepresentable(_PAST_BOUNDARY)
    if int(a) <= 1:
        # index 1 is the largest: from index 2 on the value is 0, 1 or b
        return rec_add(a, b)
    if not b.is_finite:
        # index 3 is the largest: indices from 4 on give w <= m^b
        return rec_pow(a, b, ctx.max_digits)
    if a == _TWO and b == _TWO:
        return _FOUR  # fixed point of every index
    # H[i](m, k) grows without bound in i
    return OMEGA


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
