"""Decidable cut predicates over a truncated surrational field, plus the
Gaussian (complex) extension of the field.

A cut specification names a left set inside the field truncated at some
multiplication-closed ordinal: either all elements below a given surrational
or all elements whose n-th power stays below a positive surrational.
Membership is a single exact surinteger inequality, so it is decidable even
though the cut itself is an infinite set.

Root cuts classify as surrational (an exact n-th root exists, returned as a
witness) or irrational.  The decision is structural, on the radicand that
``surrational.reduce`` leaves: integer sides use exact integer roots,
monomial sides the monomial root of the exponent (``natural._exp_root``)
and the root of the coefficient.  ``reduce`` turns proportional sides into
their integer ratio, so the answer is ``inconclusive`` exactly when a side
keeps more than one term; it is never a guess.

The Gaussian extension is the plain pair construction with the textbook
formulas; over an ordered field they make every nonzero element invertible.
"""

from __future__ import annotations

from math import isqrt

from .errors import DivisionByZero, OutOfField, Undefined
from .natural import _exp_root
from .ordinal import DEFAULT_MAX_DIGITS, LT, Ordinal, _check_pow_digits, _Frozen, _set
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
    q_div,
    q_eq,
    q_from_int,
    q_mul,
    q_neg,
    q_sub,
    reduce as q_reduce,
)


class RationalCut(_Frozen):
    """Left set of every field element below ``q``."""

    __slots__ = ("q", "lam")

    def __init__(self, q: SurRational, lam: Ordinal):
        check_lambda(lam)
        _set(self, "q", q)
        _set(self, "lam", lam)


class RootCut(_Frozen):
    """Left set of every field element whose n-th power is below ``q > 0``."""

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
    # the n-th power of any value leads with n times its leading exponent,
    # so e needs a monomial n-th root and c an integer one
    root_c, root_e = _int_nth_root(abs(c), n), _exp_root(e, n)
    if root_c**n != abs(c) or root_e is None:
        return None, True
    return _make_si(((root_e, root_c if c > 0 else -root_c),)), True


def classify_root_cut(cut: RootCut) -> RootClassification:
    """Decide whether the root cut sits at an exact n-th root.

    A returned witness p always satisfies ``p^n == q`` up to value equality.
    Both verdicts come from the leading-term analysis of the reduced
    radicand's two sides, which decides integers and monomials with no
    bound; a side with more than one term leaves the cut ``inconclusive``.
    """
    q = q_reduce(cut.q)
    rn, dec_n = _si_nth_root(q.num, cut.n)
    rd, dec_d = _si_nth_root(q.den, cut.n)
    if not (dec_n and dec_d):
        return RootClassification("inconclusive")
    if rn is None or rd is None:
        return RootClassification("irrational")
    witness = SurRational(rn, rd)
    assert q_eq(_q_pow(witness, cut.n), q)
    return RootClassification("surrational", witness)


def _q_pow(p: SurRational, n: int) -> SurRational:
    return SurRational(si_pow(p.num, n), si_pow(p.den, n))


class GaussianSurRational(_Frozen):
    """Pair (re, im) with the usual complex formulas over surrationals."""

    __slots__ = ("re", "im")

    def __init__(self, re: SurRational, im: SurRational):
        _set(self, "re", re)
        _set(self, "im", im)

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
