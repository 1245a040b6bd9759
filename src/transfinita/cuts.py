"""Decidable cut predicates over a truncated surrational field, plus the
Gaussian (complex) extension of the field.

A cut specification names a set inside the field truncated at some
multiplication-closed ordinal.  A rational cut is the left set of all
elements below a given surrational q.  A root cut is the set of all x with
x^n < q for a positive q: for odd n the left set below q's n-th root, but
for even n the interval between its two roots, so ``member(sqrt[2](2), -1)``
is true and ``member(sqrt[2](2), -5)`` false.  Membership is decidable
though the set is infinite: for x = a/b and q = c/d it is the sign of the
polynomial a^n*d - c*b^n, read off its value at one integer large enough
that the value has the sign of the leading coefficient
(``surrational._pow_compare``, which proves the bound).  Only where the
input rules that out is the polynomial multiplied out in the ring.

Root cuts classify as surrational (an exact n-th root exists, returned as a
witness) or irrational.  The decision is structural, on the radicand as
given: it has a verdict exactly when it is a ratio of two monomials, which one
product of each side with the other's leading term tests, and then by the
monomial root of each exponent (``natural._exp_root``) and the integer root
of each coefficient.  Any other radicand leaves the cut ``inconclusive``; the
answer is never a guess.

The Gaussian extension is the plain pair construction with the textbook
formulas; over an ordered field they make every nonzero element invertible.
"""

from __future__ import annotations

from math import isqrt

from .errors import DivisionByZero, OutOfField, Undefined
from .natural import _convolve_terms, _exp_root
from .ordinal import DEFAULT_MAX_DIGITS, EQ, LT, Ordinal, _check_pow_digits, _Frozen, _set
from .surinteger import (
    SurInteger,
    _make as _make_si,
    _shared,
    check_lambda,
)
from .surrational import (
    Q_ZERO,
    SurRational,
    _pow_compare,
    in_lambda_field,
    q_add,
    q_compare,
    q_div,
    q_eq,
    q_mul,
    q_neg,
    q_sub,
)


class RationalCut(_Frozen):
    """Left set of every field element below ``q``."""

    __slots__ = ("q", "lam")

    def __init__(self, q: SurRational, lam: Ordinal):
        check_lambda(lam)
        _set(self, "q", q)
        _set(self, "lam", lam)


class RootCut(_Frozen):
    """Set of every field element whose n-th power is below ``q > 0``."""

    __slots__ = ("q", "n", "lam")

    def __init__(self, q: SurRational, n: int, lam: Ordinal):
        check_lambda(lam)
        check_root(q, n)
        _set(self, "q", q)
        _set(self, "n", n)
        _set(self, "lam", lam)


def check_root(q: SurRational, n: int) -> None:
    """A root cut needs a degree n >= 2 and a radicand q > 0."""
    if n < 2:
        raise Undefined("root cuts need n >= 2")
    # denominators are positive, so q > 0 when its numerator leads positive
    if q.is_zero or q.num.terms[0][1] < 0:
        raise Undefined("root cuts need a strictly positive radicand")


def cut_member(cut, p: SurRational, max_digits: int = DEFAULT_MAX_DIGITS) -> bool:
    """Exact membership of ``p`` in the cut's set.

    Raises OutOfField when ``p`` is outside the ambient truncated field, and
    ResourceExceeded when a root cut's n-th powers may pass ``max_digits``.
    """
    if not in_lambda_field(p, cut.lam):
        raise OutOfField(f"{p!r} is not in the field truncated at {cut.lam!r}")
    if isinstance(cut, RationalCut):
        return q_compare(p, cut.q) == LT
    # every coefficient of x^n is at most (sum of |coefficients of x|)^n
    for x in (p.num, p.den):
        _check_pow_digits(sum(abs(c) for _, c in x.terms), cut.n, max_digits)
    return _pow_compare(p, cut.q, cut.n, max_digits) == LT


class RootClassification(_Frozen):
    """A root cut's verdict, with the exact root when there is one."""

    __slots__ = ("kind", "witness")

    def __init__(self, kind: str, witness: SurRational | None = None):
        _set(self, "kind", kind)  # "surrational" | "irrational" | "inconclusive"
        _set(self, "witness", witness)

    def __repr__(self) -> str:
        if self.kind == "surrational":
            return f"Surrational({self.witness!r})"
        return self.kind.capitalize()


def _int_nth_root(v: int, n: int) -> int:
    # floor n-th root for v >= 0, in integers only: a float root overflows
    # past 1e308 and lands too far off to correct step by step past ~1e32.
    # Newton's step falls monotonically from a start above the root and
    # stops at the floor.
    if v < 2:
        return v
    if n >= v.bit_length():  # 2^n > v: the root is 1, whatever n is
        return 1
    if n == 2:
        return isqrt(v)
    x = 1 << -(-v.bit_length() // n)
    while True:
        y = ((n - 1) * x + v // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def _si_nth_root(a: SurInteger, n: int):
    """Exact n-th root of the monomial ``a`` with a positive coefficient, or
    None when it has none."""
    ((e, c),) = a.terms
    # the n-th power of any value leads with n times its leading exponent,
    # so e needs a monomial n-th root and c an integer one
    root_c, root_e = _int_nth_root(c, n), _exp_root(e, n)
    if root_c**n != c or root_e is None:
        return None
    return _make_si(((root_e, root_c),))


def classify_root_cut(cut: RootCut) -> RootClassification:
    """Decide whether the root cut sits at an exact n-th root.

    A returned witness p always satisfies ``p^n == q`` up to value equality.
    The radicand q = num/den is a ratio of two monomials m1/m2 exactly when
    ``num * lead(den) == den * lead(num)``: num*m2 == den*m1 forces
    m1/m2 = lead(num)/lead(den).  Then q has an n-th root exactly when both
    monomials of that ratio in lowest terms have one, whatever their size or
    n; any other radicand leaves the cut ``inconclusive``.
    """
    num, den, n = cut.q.num.terms, cut.q.den.terms, cut.n
    if _convolve_terms(num, den[:1]) != _convolve_terms(den, num[:1]):
        return RootClassification("inconclusive")
    _, m1, m2 = _shared(_make_si(num[:1]), _make_si(den[:1]))
    rn, rd = _si_nth_root(m1, n), _si_nth_root(m2, n)
    if rn is None or rd is None:
        return RootClassification("irrational")
    witness = SurRational(rn, rd)
    assert _pow_compare(witness, cut.q, n) == EQ
    return RootClassification("surrational", witness)


class GaussianSurRational(_Frozen):
    """Pair (re, im) with the usual complex formulas over surrationals."""

    __slots__ = ("re", "im")

    def __init__(self, re: SurRational, im: SurRational):
        _set(self, "re", re)
        _set(self, "im", im)

    def __repr__(self) -> str:
        return f"Gaussian[{self.re!r}, {self.im!r}]"


CX_ZERO = GaussianSurRational(Q_ZERO, Q_ZERO)
CX_ONE = GaussianSurRational(SurRational(1), Q_ZERO)
CX_I = GaussianSurRational(Q_ZERO, SurRational(1))


def cx_eq(a: GaussianSurRational, b: GaussianSurRational) -> bool:
    return q_eq(a.re, b.re) and q_eq(a.im, b.im)


def cx_add(a: GaussianSurRational, b: GaussianSurRational) -> GaussianSurRational:
    return GaussianSurRational(q_add(a.re, b.re), q_add(a.im, b.im))


def cx_neg(a: GaussianSurRational) -> GaussianSurRational:
    return GaussianSurRational(q_neg(a.re), q_neg(a.im))


def cx_sub(a: GaussianSurRational, b: GaussianSurRational) -> GaussianSurRational:
    return cx_add(a, cx_neg(b))


def cx_mul(a: GaussianSurRational, b: GaussianSurRational) -> GaussianSurRational:
    re = q_sub(q_mul(a.re, b.re), q_mul(a.im, b.im))
    im = q_add(q_mul(a.re, b.im), q_mul(a.im, b.re))
    return GaussianSurRational(re, im)


def cx_inv(a: GaussianSurRational) -> GaussianSurRational:
    d = q_add(q_mul(a.re, a.re), q_mul(a.im, a.im))
    if d.is_zero:
        raise DivisionByZero("inverse of complex zero")
    return GaussianSurRational(q_div(a.re, d), q_neg(q_div(a.im, d)))


def cx_div(a: GaussianSurRational, b: GaussianSurRational) -> GaussianSurRational:
    return cx_mul(a, cx_inv(b))
