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

Structural case tables (settled by the shape of the normal form, small cases
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


def _merge_terms(ta, tb) -> tuple:
    """Merge-add of two term lists sorted by decreasing exponent; sums that
    cancel to zero drop out (two ordinal coefficients never cancel)."""
    if not ta or not tb or ta[-1][0] > tb[0][0]:
        return (*ta, *tb)  # ta ends above where tb starts: nothing to merge
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
    return tuple(out)


# The monomial operations: w^(w^z*k + ...) reads as x_z^k * ... in the x_z =
# w^(w^z); the binary ones read two nonzero finite exponents as ints.
def _exp_sum(ea, eb):
    """The natural sum of two exponents (monomial product); a zero one gives
    the other, and two nonzero finite ones add as integers."""
    if not ea:
        return eb
    if not eb:
        return ea
    if not ea[0][0] and not eb[0][0]:
        return _finite(ea[0][1] + eb[0][1])
    return nat_add(ea, eb)


def _exp_min(x, y):
    """Componentwise min of two exponents (monomial gcd)."""
    if not (x and y):
        return ZERO
    if not x[0][0] and not y[0][0]:
        return min(x, y)
    dy = dict(y)
    return _make(tuple((e, min(k, dy[e])) for e, k in x if e in dy))


def _exp_diff(x, y):
    """The exponent d with ``_exp_sum(y, d) == x`` (monomial quotient), or
    None when some component of y exceeds x's."""
    if not y:
        return x
    if x and not x[0][0] and not y[0][0]:
        d = x[0][1] - y[0][1]
        return _finite(d) if d >= 0 else None
    left = dict(x)
    for e, k in y:
        have = left.get(e, 0)
        if have < k:
            return None
        left[e] = have - k
    return _make(tuple((e, left[e]) for e, _ in x if left[e]))


def _exp_root(x, n: int):
    """The exponent r with n copies of r summing to x (monomial n-th root),
    or None when some component does not divide by n."""
    if any(k % n for _, k in x):
        return None
    return _make(tuple((e, k // n) for e, k in x))


def _int_terms(terms):
    """A polynomial in w as (int exponent, coefficient) pairs in decreasing
    exponent order, or None when it is zero or has a transfinite exponent
    (terms decrease, so the first exponent decides: finite when it is 0 or
    leads with w^0)."""
    if not terms or (terms[0][0] and terms[0][0][0][0]):
        return None
    return [(e[0][1] if e else 0, c) for e, c in terms]


def _convolve_terms(ta, tb) -> tuple:
    """Distributive product of two term lists: exponents add naturally
    (``_exp_sum``), like terms collect, zero sums drop out.  One term times
    a list keeps the list's order (``x -> e + x`` is strictly increasing),
    so a one-term side needs no bucket and no sort.

    When every exponent of both sides is finite, the two are polynomials
    in w: their exponents are read as ints once (``_int_terms``), like
    terms collect under int keys, and the keys sorted in decreasing order
    give the exponents in the order of the finite ordinals they stand for."""
    if len(tb) == 1:
        ta, tb = tb, ta  # a one-term side goes first
    if len(ta) == 1:
        ea, ca = ta[0]
        if ca == 1 and not ea:
            return tb  # times one, as in every division by a surinteger
        return tuple((_exp_sum(ea, eb), ca * cb) for eb, cb in tb)
    ia = _int_terms(ta)
    ib = ia and _int_terms(tb)
    if ib:
        sums: dict = {}
        for i, ca in ia:
            for j, cb in ib:
                k = i + j
                sums[k] = sums.get(k, 0) + ca * cb
        return tuple((_finite(k), sums[k]) for k in sorted(sums, reverse=True) if sums[k])
    bucket: dict = {}
    for ea, ca in ta:
        for eb, cb in tb:
            e = _exp_sum(ea, eb)
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
    if a.is_zero:
        return ONE
    if kind in (ClosureKind.GAMMA_ADD, ClosureKind.NAT_ADD):
        return rec_mul(a, OMEGA)
    if a == ONE:
        return Ordinal(2)
    if kind in (ClosureKind.DELTA_MUL, ClosureKind.NAT_MUL):
        return rec_pow(a, OMEGA)
    # exponentiation closure: the class below the boundary is {0, 1, 2, w}
    if a.is_finite:  # a == 2
        return OMEGA
    raise NotRepresentable("the next exponentiation closure point exceeds the notation")
