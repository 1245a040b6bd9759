"""Decidable cut predicates over a truncated surrational field, plus the
Gaussian (complex) extension of the field.

A cut specification names a left set inside the field truncated at some
multiplication-closed ordinal: either all elements below a given surrational
or all elements whose n-th power stays below a positive surrational.
Membership is a single exact surinteger inequality, so it is decidable even
though the cut itself is an infinite set.

Root cuts classify as surrational (an exact n-th root exists, returned as a
witness) or irrational.  The decision is structural: integer radicands use
exact integer roots, monomial radicands divide the exponent and take the
root of the coefficient.  Any other radicand is tested exactly for a finite
root ``i/j`` with ``i, j`` up to a search bound: ``(i/j)^n == num/den``
holds only when numerator and denominator have the same exponents and
proportional coefficients whose ratio, in lowest terms, is a pair of
perfect n-th powers.  Past the bound, or for any other shape, the answer is
``inconclusive`` rather than a guess.

The Gaussian extension is the plain pair construction with the textbook
formulas; over an ordered field they make every nonzero element invertible.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import Optional

from .errors import DivisionByZero, OutOfField, Undefined
from .ordinal import DEFAULT_MAX_DIGITS, GT, LT, Ordinal, _check_pow_digits
from .ordinal import _make as _make_ordinal
from .surinteger import (
    SurInteger,
    _make as _make_si,
    check_lambda,
    si_compare,
    si_mul,
    si_pow,
)
from .surrational import (
    Q_ZERO,
    SurRational,
    in_lambda_field,
    q_add,
    q_compare,
    q_div,
    q_eq,
    q_from_int,
    q_mul,
    q_neg,
    q_sub,
    reduce as q_reduce,
)

# largest numerator and denominator of the finite roots i/j that
# classify_root_cut tests for radicands the structural analysis leaves open
ROOT_SEARCH_BOUND = 24


@dataclass(frozen=True)
class RationalCut:
    """Left set of every field element below ``q``."""

    q: SurRational
    lam: Ordinal

    def __post_init__(self):
        check_lambda(self.lam)


@dataclass(frozen=True)
class RootCut:
    """Left set of every field element whose n-th power is below ``q > 0``."""

    q: SurRational
    n: int
    lam: Ordinal

    def __post_init__(self):
        check_lambda(self.lam)
        if self.n < 2:
            raise Undefined("root cuts need n >= 2")
        if q_compare(self.q, Q_ZERO) != GT:
            raise Undefined("root cuts need a strictly positive radicand")


def cut_member(cut, p: SurRational, max_digits: int = DEFAULT_MAX_DIGITS) -> bool:
    """Exact membership of ``p`` in the cut's left set.

    Raises OutOfField when ``p`` is outside the ambient truncated field, and
    ResourceExceeded when a root cut's n-th powers may pass ``max_digits``.
    """
    if not in_lambda_field(p, cut.lam):
        raise OutOfField(f"{p!r} is not in the field truncated at {cut.lam!r}")
    if isinstance(cut, RationalCut):
        lhs = si_mul(p.num, cut.q.den)
        rhs = si_mul(p.den, cut.q.num)
        return si_compare(lhs, rhs) == LT
    # every coefficient of x^n is at most (sum of |coefficients of x|)^n
    for x in (p.num, p.den):
        _check_pow_digits(sum(abs(c) for _, c in x.terms), cut.n, max_digits)
    lhs = si_mul(si_pow(p.num, cut.n), cut.q.den)
    rhs = si_mul(si_pow(p.den, cut.n), cut.q.num)
    return si_compare(lhs, rhs) == LT


@dataclass(frozen=True)
class RootClassification:
    kind: str  # "surrational" | "irrational" | "inconclusive"
    witness: Optional[SurRational] = None

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
    if n == 2:
        return isqrt(v)
    x = 1 << -(-v.bit_length() // n)
    while True:
        y = ((n - 1) * x + v // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def _si_nth_root(a: SurInteger, n: int):
    """(root, decided): exact n-th root when ``a`` is an integer or a single
    monomial, decided negatively when the leading term rules a root out,
    undecided otherwise."""
    if a.is_zero:
        return SurInteger(0), True
    if len(a.terms) != 1:
        return None, False
    e, c = a.terms[0]
    if c < 0 and n % 2 == 0:
        return None, True
    root_c = _int_nth_root(abs(c), n)
    if root_c**n != abs(c):
        return None, True
    if c < 0:
        root_c = -root_c
    if not e:
        return SurInteger(root_c), True
    # monomial: every coefficient of the exponent must divide by n, since
    # the n-th power of any value leads with n times its leading exponent
    if any(k % n for _, k in e):
        return None, True
    root_e = _make_ordinal(tuple((x, k // n) for x, k in e))
    return _make_si(((root_e, root_c),)), True


def classify_root_cut(cut: RootCut) -> RootClassification:
    """Decide whether the root cut sits at an exact n-th root.

    A returned witness p always satisfies ``p^n == q`` up to value equality.
    An ``irrational`` verdict comes from the structural leading-term
    analysis.  Radicands it does not cover get the exact test of
    :func:`_finite_root` for a root ``i/j`` with ``i, j <= ROOT_SEARCH_BOUND``,
    and ``inconclusive`` means there is no such root.
    """
    q = q_reduce(cut.q)
    rn, dec_n = _si_nth_root(q.num, cut.n)
    rd, dec_d = _si_nth_root(q.den, cut.n)
    if dec_n and dec_d:
        if rn is None or rd is None:
            return RootClassification("irrational")
        witness = SurRational(rn, rd)
    else:
        witness = _finite_root(q, cut.n)
        if witness is None:
            return RootClassification("inconclusive")
    assert q_eq(_q_pow(witness, cut.n), q)
    return RootClassification("surrational", witness)


def _finite_root(q: SurRational, n: int) -> Optional[SurRational]:
    """The root ``i/j`` of ``q`` with ``i, j <= ROOT_SEARCH_BOUND`` and the
    least i, or None.

    ``(i/j)^n == num/den`` means ``j^n*num == i^n*den``: both sides scale one
    side's terms by a positive integer, so num and den share their exponents
    and their coefficients have one ratio ``a/b`` (positive, as q > 0).  In
    lowest terms ``a == i0^n`` and ``b == j0^n`` for ``i0/j0`` in lowest
    terms, and every solution is a multiple ``(k*i0, k*j0)``.
    """
    tn, td = q.num.terms, q.den.terms
    if len(tn) != len(td):
        return None
    g = gcd(tn[0][1], td[0][1])
    a, b = tn[0][1] // g, td[0][1] // g
    if any(en != ed or cn * b != cd * a for (en, cn), (ed, cd) in zip(tn, td)):
        return None
    if max(a, b) > ROOT_SEARCH_BOUND**n:
        return None
    i, j = _int_nth_root(a, n), _int_nth_root(b, n)
    if i**n != a or j**n != b:
        return None
    return SurRational(SurInteger(i), SurInteger(j))


def _q_pow(p: SurRational, n: int) -> SurRational:
    return SurRational(si_pow(p.num, n), si_pow(p.den, n))


@dataclass(frozen=True)
class GaussianSurRational:
    """Pair (re, im) with the usual complex formulas over surrationals."""

    re: SurRational
    im: SurRational

    def __repr__(self) -> str:
        return f"Gaussian[{self.re!r}, {self.im!r}]"


CX_ZERO = GaussianSurRational(Q_ZERO, Q_ZERO)
CX_ONE = GaussianSurRational(q_from_int(1), Q_ZERO)
CX_I = GaussianSurRational(Q_ZERO, q_from_int(1))


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
