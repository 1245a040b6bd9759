"""Natural (Hessenberg) ordinal arithmetic and closure-point predicates.

Natural addition merges two normal forms coefficientwise over the union of
their exponents; natural multiplication is the full distributive product
with natural sums of exponents.  Both are commutative and associative, which
the recursive operations are not.

A closure point of an operation is an ordinal that the operation cannot
escape from below.  Two families are covered:

* left-absorption points of the recursive operations (``GAMMA_ADD``,
  ``DELTA_MUL``, ``EPSILON_EXP``): every smaller b composed on the left
  leaves a fixed.  Degenerate absorbers are skipped in the defining
  quantifier (b = 0 for products, b <= 1 for powers) since 0*.a = 0 and
  1^a = 1 hold identically and would empty the classes; with that reading
  omega belongs to all three, matching how the classes are actually used.
* two-sided closure classes of the natural operations (``NAT_ADD``,
  ``NAT_MUL``): sums/products of two smaller ordinals stay smaller.

Structural case tables (decided by the shape of the normal form, small cases
by direct evaluation of the defining condition over all smaller ordinals):

===========  ==================================================
GAMMA_ADD    0 and the single-term powers w^z (coefficient 1)
NAT_ADD      same class
DELTA_MUL    0, 1, 2 and the doubly-indecomposable w^(w^z)
NAT_MUL      same class
EPSILON_EXP  0, 1, 2 and w; the next point is past the notation
===========  ==================================================
"""

from __future__ import annotations

from enum import Enum

from .errors import NotRepresentable, Undefined
from .ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    _finite,
    _make,
    rec_mul,
    rec_pow,
)


def _merge_terms(ta, tb) -> list:
    """Merge-add of two term lists sorted by decreasing exponent; sums that
    cancel to zero drop out (two ordinal coefficients never cancel)."""
    out = []
    i = j = 0
    la, lb = len(ta), len(tb)
    while i < la and j < lb:
        ea, eb = ta[i][0], tb[j][0]
        if ea > eb:
            out.append(ta[i])
            i += 1
        elif ea < eb:
            out.append(tb[j])
            j += 1
        else:
            s = ta[i][1] + tb[j][1]
            if s:
                out.append((ea, s))
            i += 1
            j += 1
    out.extend(ta[i:])
    out.extend(tb[j:])
    return out


def _convolve_terms(ta, tb) -> tuple:
    """Distributive product of two term lists: exponents add naturally (finite
    ones as integers, via ``_finite``), like terms collect, zero sums drop out."""
    bucket: dict = {}
    for ea, ca in ta:
        ka = ea[0][1] if ea and not ea[0][0] else 0
        for eb, cb in tb:
            if ka and eb and not eb[0][0]:
                e = _finite(ka + eb[0][1])
            else:
                e = nat_add(ea, eb)
            bucket[e] = bucket.get(e, 0) + ca * cb
    exps = sorted((e for e, c in bucket.items() if c), reverse=True)
    return tuple((e, bucket[e]) for e in exps)


def nat_add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Commutative sum: coefficientwise merge over the union of exponents."""
    if not a:
        return b
    if not b:
        return a
    return _make(_merge_terms(a, b))


def nat_mul(a: Ordinal, b: Ordinal) -> Ordinal:
    """Commutative product: distribute fully, adding exponents naturally."""
    return _make(_convolve_terms(a, b))


def nat_sum(seq, n: int) -> Ordinal:
    """Natural sum of the first n entries; entries past the end count as 0."""
    out = ZERO
    for x in seq[:n]:
        out = nat_add(out, x)
    return out


class ClosureKind(Enum):
    GAMMA_ADD = "gamma-add"
    DELTA_MUL = "delta-mul"
    EPSILON_EXP = "epsilon-exp"
    NAT_ADD = "nat-add"
    NAT_MUL = "nat-mul"


def _is_add_closed(a: Ordinal) -> bool:
    # 0, or a single term with coefficient 1 (covers 1 = w^0 and omega)
    return not a or (len(a) == 1 and a[0][1] == 1)


def _is_mul_closed(a: Ordinal) -> bool:
    if a.is_finite:
        return int(a) in (0, 1, 2)
    if len(a) != 1 or a[0][1] != 1:
        return False
    e = a[0][0]
    # exponent must itself be a power of omega (so a = w^(w^z))
    return bool(e) and _is_add_closed(e)


def _is_exp_closed(a: Ordinal) -> bool:
    return (a.is_finite and int(a) in (0, 1, 2)) or a == OMEGA


_STRUCTURAL = {
    ClosureKind.GAMMA_ADD: _is_add_closed,
    ClosureKind.NAT_ADD: _is_add_closed,
    ClosureKind.DELTA_MUL: _is_mul_closed,
    ClosureKind.NAT_MUL: _is_mul_closed,
    ClosureKind.EPSILON_EXP: _is_exp_closed,
}


def is_closure_number(kind: ClosureKind, a: Ordinal) -> bool:
    """Decide closure structurally from the shape of the normal form."""
    return _STRUCTURAL[kind](a)


def next_closure(kind: ClosureKind, a: Ordinal) -> Ordinal:
    """Least closure point of the same kind strictly above ``a``.

    Above the small cases this is the jump one operation up the tower:
    ``a *. w`` for additive closure and ``a ^ w`` for multiplicative
    closure.  The next exponentiation closure point past omega is the
    notation boundary, reported as NotRepresentable.
    """
    if not is_closure_number(kind, a):
        raise Undefined(f"{a!r} is not a {kind.value} closure number")
    if kind in (ClosureKind.GAMMA_ADD, ClosureKind.NAT_ADD):
        if a.is_zero:
            return ONE
        return rec_mul(a, OMEGA)
    if kind in (ClosureKind.DELTA_MUL, ClosureKind.NAT_MUL):
        if a.is_zero:
            return ONE
        if a == ONE:
            return Ordinal(2)
        return rec_pow(a, OMEGA)
    # exponentiation closure: the class below the boundary is {0, 1, 2, w}
    if a.is_zero:
        return ONE
    if a == ONE:
        return Ordinal(2)
    if a.is_finite:  # a == 2
        return OMEGA
    raise NotRepresentable("the next exponentiation closure point exceeds the notation")
