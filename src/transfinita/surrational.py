"""The ordered field of surinteger fractions ("surrationals").

A surrational is a numerator/denominator pair with strictly positive
denominator.  Equality and order never need a canonical form: both are
settled by cross-multiplication in the surinteger ring, which is exact and
total.  The ring is Z[x_z], polynomials in one variable x_z = w^(w^z) per
exponent z, so gcds exist.  :func:`q_add` adds by Henrici's method over
``surinteger.si_gcd``, so a sum of two fractions in lowest terms is in
lowest terms again whenever ``si_gcd`` is exact, which it is for
polynomials in w short of sparse ones of high degree.  Products and
quotients divide out only their shared integer content and monomial
(``surinteger._shared``), so equal values can print different text.
Exponents are monomials in the x_z, and their gcd and quotient are
``natural._exp_min`` and ``_exp_diff``.

The field truncated at omega is the ordinary rationals and is the only
Archimedean stage of the tower: :func:`archimedean_witness` finds the
bounding multiple there and reports NoWitness against, say, (1, omega).
"""

from __future__ import annotations

from .errors import NO_WITNESS, NOT_DIVISIBLE, DivisionByZero, Undefined
from .natural import _exp_diff, _int_terms
from .ordinal import LT, Ordinal, _encode_terms, _Frozen
from .surinteger import (
    S_ONE,
    S_ZERO,
    SurInteger,
    _make,
    _new,
    _shared,
    _value_at,
    in_lambda_ring,
    neg,
    si_abs,
    si_add,
    si_compare,
    si_gcd,
    si_mul,
    si_sub,
)


class SurRational(_Frozen):
    """Fraction of surintegers with positive denominator.

    Mixed-sign input denominators are normalised at construction by
    negating both components.  Equality and hash are structural; value
    equality is :func:`q_eq`.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=S_ONE):
        if isinstance(num, int):
            num = SurInteger(num)
        if isinstance(den, int):
            den = SurInteger(den)
        if not den.terms:
            raise DivisionByZero("zero denominator")
        if den.terms[0][1] < 0:  # the leading coefficient carries the sign
            num, den = neg(num), neg(den)
        _set_num(self, num)
        _set_den(self, den)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __repr__(self) -> str:
        return f"SurRational[{surrational_str(self)}]"


# the slots' own setters (assignment raises), quicker than _set
_set_num, _set_den = SurRational.num.__set__, SurRational.den.__set__


def _fraction(num: SurInteger, den: SurInteger) -> SurRational:
    # a SurRational from a denominator known to lead with a positive
    # coefficient, without the checks of __init__
    q = _new(SurRational)
    _set_num(q, num)
    _set_den(q, den)
    return q


Q_ZERO = SurRational(S_ZERO)
Q_ONE = SurRational(S_ONE)
Q_HALF = SurRational(1, 2)


def q_eq(p: SurRational, q: SurRational) -> bool:
    """Value equality by cross-multiplication; no reduction involved."""
    return si_mul(p.num, q.den) == si_mul(q.num, p.den)


def q_compare(p: SurRational, q: SurRational) -> int:
    """Total order via the cross products (denominators are positive)."""
    return si_compare(si_mul(p.num, q.den), si_mul(q.num, p.den))


def q_add(p: SurRational, q: SurRational) -> SurRational:
    """Henrici's sum (Knuth, TAOCP 2, 4.5.1): for a/b + c/d with g a common
    divisor of b and d, t = a*(d/g) + c*(b/g) and g2 = gcd(t, g), the sum
    is (t/g2) / ((b/g) * (d/g2)).  Exact for any such g; in lowest terms
    when the summands are and g = gcd(b, d), which ``si_gcd`` finds for
    polynomials in w.  Nothing more is divided out, so summands not in lowest
    terms can pass that on: 2/4 + 1/3 is 10/12."""
    g, bp, dp = si_gcd(p.den, q.den)
    if g == S_ONE:
        num = si_add(si_mul(p.num, q.den), si_mul(q.num, p.den))
        return _fraction(num, si_mul(p.den, q.den)) if num.terms else Q_ZERO
    t = si_add(si_mul(p.num, dp), si_mul(q.num, bp))
    if not t.terms:
        return Q_ZERO
    _, t, gq = si_gcd(t, g)
    return _fraction(t, si_mul(bp, si_mul(dp, gq)))


def q_neg(p: SurRational) -> SurRational:
    return _fraction(neg(p.num), p.den)


def q_sub(p: SurRational, q: SurRational) -> SurRational:
    return q_add(p, q_neg(q))


def q_mul(p: SurRational, q: SurRational) -> SurRational:
    return _light_reduce(si_mul(p.num, q.num), si_mul(p.den, q.den))


def q_inv(p: SurRational) -> SurRational:
    """Swap the components, fixing signs so the denominator stays positive.

    The inverse of zero is zero by definition here (callers that must treat
    division by zero as an error check for zero themselves).
    """
    if p.num.is_zero:
        return Q_ZERO
    return SurRational(p.den, p.num)


def q_div(p: SurRational, q: SurRational) -> SurRational:
    if q.num.is_zero:
        raise DivisionByZero("division by zero")
    return q_mul(p, q_inv(q))


def q_abs(p: SurRational) -> SurRational:
    return _fraction(si_abs(p.num), p.den)


def from_surinteger(a: SurInteger) -> SurRational:
    return _fraction(a, S_ONE)


def _light_reduce(num: SurInteger, den: SurInteger) -> SurRational:
    # shared integer content and shared monomial divided out
    if num.is_zero:
        return Q_ZERO
    _, num, den = _shared(num, den)
    return SurRational(num, den)


def exact_divide(a: SurInteger, b: SurInteger):
    """Exact quotient c with ``b * c == a`` by leading-term long division.

    Returns the NotDivisible sentinel when the division leaves a remainder
    at any step (no exponent match, a coefficient that does not divide, or
    a quotient term below the one the last terms of a and b fix).
    Exponent "division" is coefficientwise natural subtraction, which is
    exactly what inverts the natural sum of exponents.
    """
    if b.is_zero:
        raise DivisionByZero("exact division by zero")
    if a.is_zero:
        return S_ZERO
    # b | a in Z[w] makes b(x) | a(x) for every integer x, so a few small x
    # refuse most non-divisors before the division runs term by term; b of
    # degree up to 1,000 keeps every residue under 3,000 bits
    ta, tb = _int_terms(a.terms), _int_terms(b.terms)
    if ta and tb and len(tb) > 1 and tb[0][0] <= 1000:
        for x in (2, 3, 5, 7):
            m = abs(_value_at(tb, x))
            if m > 1 and _value_at(ta, x, m):
                return NOT_DIVISIBLE
    # natural sum is strictly monotone, so the last terms of b and c multiply
    # to the last term of b*c alone, and no term of c lies below ``low``
    (ea, ca), (el, cl) = a.terms[-1], b.terms[-1]
    low = _exp_diff(ea, el)
    if low is None or ca % cl:
        return NOT_DIVISIBLE
    eb, cb = b.terms[0]
    quot = []
    r = a
    while r.terms:
        er, cr = r.terms[0]
        eq = _exp_diff(er, eb)
        if eq is None or eq < low or cr % cb:
            return NOT_DIVISIBLE
        cq = cr // cb
        quot.append((eq, cq))
        r = si_sub(r, si_mul(b, _make(((eq, cq),))))
    q = _make(tuple(quot))
    return q if si_mul(b, q) == a else NOT_DIVISIBLE


def in_lambda_field(p: SurRational, lam: Ordinal) -> bool:
    """Membership in the field truncated at ``lam``: both components in the
    matching ring."""
    return in_lambda_ring(p.num, lam) and in_lambda_ring(p.den, lam)


def archimedean_witness(p: SurRational, q: SurRational, bound: int):
    """Least n <= bound with ``|q| <= n*|p|``, else the NoWitness sentinel.

    Monotone in n, so found by binary search; requires p != 0.
    """
    if p.is_zero:
        raise Undefined("the reference element must be nonzero")
    aq, ap = q_abs(q), q_abs(p)
    if not _le_scaled(aq, ap, bound):
        return NO_WITNESS
    lo, hi = 0, bound
    while lo < hi:
        mid = (lo + hi) // 2
        if _le_scaled(aq, ap, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _le_scaled(aq: SurRational, ap: SurRational, n: int) -> bool:
    # |q| <= n*|p|  <=>  num_q*den_p <= n*num_p*den_q
    lhs = si_mul(aq.num, ap.den)
    rhs = si_mul(si_mul(ap.num, aq.den), SurInteger(n))
    return si_compare(lhs, rhs) <= 0


def midpoint(p: SurRational, q: SurRational) -> SurRational:
    """(p + q)/2, strictly between its arguments; requires p < q."""
    if q_compare(p, q) != LT:
        raise Undefined("midpoint needs p < q")
    return q_mul(q_add(p, q), Q_HALF)


def _encode(p: SurRational, memo: dict) -> tuple:
    """The JSON members ``"num": ..., "den": ...`` and the canonical text
    ``num / den`` of ``p``, from one walk sharing ``memo``; the denominator
    is omitted from the text when 1.  The member ``"reduced": false`` stays
    constant, so that readers of schema "1" still find it."""
    num_j, num_s = _encode_terms(p.num.terms, memo)
    den_j, den_s = _encode_terms(p.den.terms, memo)
    fields = f'"num": {{"terms": {num_j}}}, "den": {{"terms": {den_j}}}, "reduced": false'
    if p.den == S_ONE:
        return fields, num_s
    if len(p.num.terms) > 1:
        num_s = f"({num_s})"
    # a lone number or a coefficient-free power parses unambiguously after /
    e, c = p.den.terms[0]
    if len(p.den.terms) > 1 or (e and c != 1):
        den_s = f"({den_s})"
    return fields, f"{num_s} / {den_s}"


def surrational_str(p: SurRational) -> str:
    """Canonical text form ``num / den``."""
    return _encode(p, {})[1]
