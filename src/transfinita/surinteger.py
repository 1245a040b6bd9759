"""The discretely ordered ring of signed normal forms ("surintegers").

A surinteger looks like an ordinal normal form whose coefficients may be any
nonzero integer: ``w^5*4 - w^4*2 - w^2*7 + w*3 - 1``.  Equivalently it is a
pair of ordinary ordinals sharing no power of omega, the negative part and
the positive part; :func:`to_coordinates`/:func:`from_coordinates` convert
between the two views.  Addition is coefficientwise, multiplication is the
distributive product with natural exponent sums, and the order is fixed by
the positive cone: a < b exactly when b - a leads with a positive
coefficient.

Truncating at omega gives the ordinary integers, the unique discrete cyclic
ring; truncating at any multiplication-closed ordinal gives one of a whole
tower of discretely ordered rings, and :func:`in_lambda_ring` decides
membership.
"""

from __future__ import annotations

from math import gcd

from .errors import NOT_CYCLIC, InvalidLambda, Undefined
from .natural import (
    ClosureKind,
    _convolve_terms,
    _exp_diff,
    _exp_min,
    _int_terms,
    _merge_terms,
    is_closure_number,
)
from .ordinal import (
    EQ,
    GT,
    LT,
    ZERO,
    Ordinal,
    validate as validate_ordinal,
)
from .ordinal import _binary_pow, _encode_terms, _finite, _Frozen, _set
from .ordinal import _make as _make_ordinal


class SurInteger(_Frozen):
    """Immutable signed normal form; exponents strictly decreasing,
    coefficients nonzero integers."""

    __slots__ = ("terms",)

    terms: tuple

    def __init__(self, value: int = 0):
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"SurInteger() takes an int, got {value!r}")
        _set(self, "terms", ((ZERO, value),) if value else ())

    @staticmethod
    def from_terms(terms) -> "SurInteger":
        a = _make(tuple(terms))
        validate(a)
        return a

    @staticmethod
    def from_ordinal(o: Ordinal) -> "SurInteger":
        return _make(o[:])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not self.terms[0][0])

    def __int__(self) -> int:
        if not self.terms:
            return 0
        if self.is_finite:
            return self.terms[0][1]
        raise Undefined("transfinite surinteger has no integer value")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SurInteger):
            return NotImplemented
        return self is other or self.terms == other.terms

    def __hash__(self) -> int:
        return hash(("si", self.terms))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"SurInteger[{surinteger_str(self)}]"

    def __reduce__(self):  # __init__ takes an int, not the terms
        return _make, (self.terms,)


# the slot's own setter (assignment raises) and object.__new__ as module
# names, so that building a value looks up neither a builtin nor an attribute
_set_terms = SurInteger.terms.__set__
_new = object.__new__


def _make(terms: tuple) -> SurInteger:
    a = _new(SurInteger)
    _set_terms(a, terms)
    return a


S_ZERO = SurInteger(0)
S_ONE = SurInteger(1)


def validate(a: SurInteger) -> None:
    """Check the signed normal-form invariants.  Raises ValueError."""
    if not isinstance(a, SurInteger):
        raise ValueError(f"not a SurInteger: {a!r}")
    prev = None
    for t in a.terms:
        if not (isinstance(t, tuple) and len(t) == 2):
            raise ValueError(f"bad term {t!r}")
        e, c = t
        if not isinstance(c, int) or isinstance(c, bool) or c == 0:
            raise ValueError(f"coefficient must be a nonzero int, got {c!r}")
        validate_ordinal(e)
        if prev is not None and prev <= e:
            raise ValueError("exponents must be strictly decreasing")
        prev = e


class CoordinateForm(_Frozen):
    """(negative part, positive part) pair of plain ordinals with disjoint
    exponent support."""

    __slots__ = ("negative", "positive")

    def __init__(self, negative: Ordinal, positive: Ordinal):
        _set(self, "negative", negative)
        _set(self, "positive", positive)


def to_coordinates(a: SurInteger) -> CoordinateForm:
    """Split into the pair view: negated negative terms / positive terms."""
    neg = tuple((e, -c) for e, c in a.terms if c < 0)
    pos = tuple((e, c) for e, c in a.terms if c > 0)
    return CoordinateForm(_make_ordinal(neg), _make_ordinal(pos))


def from_coordinates(c: CoordinateForm) -> SurInteger:
    """Signed merge of the pair view; shared exponents balance out."""
    return si_add(neg(SurInteger.from_ordinal(c.negative)), SurInteger.from_ordinal(c.positive))


def si_add(a: SurInteger, b: SurInteger) -> SurInteger:
    """Exponentwise signed sum; zero coefficients drop out."""
    return _make(_merge_terms(a.terms, b.terms))


def neg(a: SurInteger) -> SurInteger:
    return _make(tuple((e, -c) for e, c in a.terms))


def si_mul(a: SurInteger, b: SurInteger) -> SurInteger:
    """Distributive product with natural exponent sums; like terms collect
    and may cancel."""
    return _make(_convolve_terms(a.terms, b.terms))


def si_sub(a: SurInteger, b: SurInteger) -> SurInteger:
    return si_add(a, neg(b))


def si_compare(a: SurInteger, b: SurInteger) -> int:
    """Total order: the sign of a - b, its leading coefficient's."""
    d = _merge_terms(a.terms, neg(b).terms)
    if not d:
        return EQ
    return GT if d[0][1] > 0 else LT


def si_abs(a: SurInteger) -> SurInteger:
    # the sign of a surinteger is its leading coefficient's
    return neg(a) if a.terms and a.terms[0][1] < 0 else a


def si_pow(a: SurInteger, n: int) -> SurInteger:
    if n < 0:
        raise Undefined("surinteger powers take natural exponents")
    return _binary_pow(a, n, si_mul, S_ONE)


def check_lambda(lam: Ordinal) -> None:
    """A valid truncation point is a transfinite multiplication-closed
    ordinal (omega is the least one)."""
    if lam.is_finite or not is_closure_number(ClosureKind.NAT_MUL, lam):
        raise InvalidLambda(f"{lam!r} is not omega or a multiplication-closed ordinal")


def in_lambda_ring(a: SurInteger, lam: Ordinal) -> bool:
    """Membership in the ring truncated at ``lam``: both coordinates below it.

    A valid ``lam`` is one term ``w^E`` with coefficient 1, so that holds
    exactly when the leading exponent of ``a`` is below E."""
    check_lambda(lam)
    return not a.terms or a.terms[0][0] < lam[0][0]


def cyclic_decompose(a: SurInteger):
    """Express ``a`` as a signed finite sum of ones: ('+'|'-', count).

    Only the finite surintegers decompose; anything transfinite returns the
    NotCyclic sentinel, witnessing that the omega truncation is the unique
    cyclic ring in the tower.
    """
    if not a.terms:
        return ("+", 0)
    if a.is_finite:
        n = a.terms[0][1]
        return ("+", n) if n > 0 else ("-", -n)
    return NOT_CYCLIC


def content(*values: SurInteger) -> int:
    """Positive gcd of all coefficients of all the values (0 when every
    value is zero)."""
    return gcd(*[c for a in values for _, c in a.terms])


def _value_at(ts, x: int, m=None) -> int:
    """The value at the integer x, mod m when m is given, of a polynomial in
    w as ``_int_terms`` pairs, by Horner's rule: evaluation is a ring map
    Z[w] -> Z."""
    v, p = 0, ts[0][0]
    for k, c in ts:
        v = v * pow(x, p - k, m) + c
        if m:
            v %= m
        p = k
    return v * pow(x, p, m) % m if m else v * x**p


def _digits(v: int, x: int) -> list:
    """The polynomial whose coefficients are the balanced base-x digits of
    v, as ``_int_terms`` pairs."""
    ts, k, half = [], 0, x // 2
    while v:
        v, c = divmod(v, x)
        if c > half:
            c -= x
            v += 1
        if c:
            ts.append((k, c))
        k += 1
    ts.reverse()
    return ts


def _from_ints(ts) -> SurInteger:
    return _make(tuple([(_finite(k), c) for k, c in ts]))


def _shared(a: SurInteger, b: SurInteger) -> tuple:
    """(g, a/g, b/g) for g the integer content and the monomial that the
    nonzero a and b share; the monomial is the componentwise min over every
    exponent, from the two last ones, and a constant term ends the walk."""
    k = content(a, b)
    m = _exp_min(a.terms[-1][0], b.terms[-1][0])
    if m:
        for e, _ in a.terms[:-1] + b.terms[:-1]:
            m = _exp_min(m, e)
            if not m:
                break
    if not m and k == 1:
        return S_ONE, a, b
    a = _make(tuple([(_exp_diff(e, m), c // k) for e, c in a.terms]))
    b = _make(tuple([(_exp_diff(e, m), c // k) for e, c in b.terms]))
    return _make(((m, k),)), a, b


# the heuristic gcd's tries, and the most bits a value at xi may take per bit
# of the two operands before a sparse pair of high degree keeps the shared part
_GCD_TRIES = 6
_GCD_SIZE = 64


def _cofactor(g: SurInteger, g1: int, v: int, a: SurInteger, a_max: int, xi: int):
    """a/g from the balanced base-xi digits of v = a(xi)/g(xi), or None:
    accepted by ``si_gcd``'s bound (g1 = |g|_1, a_max = |a|), else by product."""
    u = _from_ints(_digits(v, xi))
    top = max([abs(c) for _, c in u.terms], default=0)
    return u if g1 * top + a_max < xi or _convolve_terms(g.terms, u.terms) == a.terms else None


def si_gcd(a: SurInteger, b: SurInteger) -> tuple:
    """(g, a/g, b/g) for nonzero a and b and a common divisor g with a
    positive leading coefficient: their gcd when both are polynomials in w,
    else the integer content and monomial they share.

    For polynomials, what is left after that shared part goes through the
    heuristic gcd (Char, Geddes & Gonnet, J. Symbolic Comput. 7, 1989):
    evaluate both at an integer xi >= 2*|a| + 2 or >= 2*|b| + 2, with |.| the
    largest coefficient, take the integer gcd h, read g from the balanced
    base-xi digits of h and each cofactor u from those of a(xi)/g(xi), and
    keep them only if g*u = a and likewise for b, which makes g the gcd.
    As (g*u)(xi) = a(xi), g*u = a holds when |g|_1*|u| + |a| < xi (|g|_1
    the sum of g's |coefficients|): every coefficient of g*u - a is then
    below xi in absolute value, and a nonzero such polynomial cannot vanish
    at xi, as its lowest nonzero coefficient would be a multiple of xi.
    Otherwise g*u is multiplied out and compared.
    An h of one digit proves the pair coprime at once: a common factor of
    degree d would be worth more than (xi/2)^d at xi.  A failed try grows
    xi.  After the last try, or when the values would dwarf a sparse pair of
    high degree, g stays the shared part, still a common divisor.
    """
    if not (a.terms and b.terms):
        raise Undefined("gcd needs two nonzero surintegers")
    g, a, b = _shared(a, b)
    ta, tb = _int_terms(a.terms), _int_terms(b.terms)
    if ta is None or tb is None or len(ta) < 2 or len(tb) < 2:
        return g, a, b
    # the proof needs xi >= 2*|.| + 2 for one of the pair, here b; 16 times
    # that keeps a stray common factor of the two values from spoiling the
    # digits, so one try mostly does
    a_max, b_max = max([abs(c) for _, c in ta]), max([abs(c) for _, c in tb])
    xi = 32 * b_max + 2
    size = max(ta[0][0], tb[0][0]) * xi.bit_length()  # the bits of a value
    if size > _GCD_SIZE * (len(ta) + len(tb)) and size > _GCD_SIZE * sum(
        c.bit_length() for _, c in ta + tb
    ):
        return g, a, b
    for _ in range(_GCD_TRIES):
        va, vb = _value_at(ta, xi), _value_at(tb, xi)
        h = gcd(va, vb)
        if h <= xi // 2:
            return g, a, b
        # a dividing b: xi is sized from b alone, so a's digits need not be
        # h's, and the general path below could fail where this holds
        if h == va and ta[0][1] > 0:
            cb = _cofactor(a, sum([abs(c) for _, c in ta]), vb // h, b, b_max, xi)
            if cb is not None:
                return (a if g is S_ONE else si_mul(g, a)), S_ONE, cb
        tg = _digits(h, xi)
        k = gcd(*[c for _, c in tg])
        if tg[0][1] < 0:
            k = -k
        if k != 1:  # h / k still divides both values
            h //= k
            tg = [(e, c // k) for e, c in tg]
        d, d1 = _from_ints(tg), sum([abs(c) for _, c in tg])
        ca = _cofactor(d, d1, va // h, a, a_max, xi)
        cb = None if ca is None else _cofactor(d, d1, vb // h, b, b_max, xi)
        if cb is not None:
            return (d if g is S_ONE else si_mul(g, d)), ca, cb
        xi = xi * 73794 // 27011  # about xi * (1 + sqrt(3))
    return g, a, b


def surinteger_str(a: SurInteger) -> str:
    """Canonical signed text form, e.g. ``w^2*2 - w*3 + 1``."""
    return _encode_terms(a.terms, {})[1]


def to_ordinal(a: SurInteger):
    """The plain ordinal with the same terms, or None if any sign is negative."""
    if all(c > 0 for _, c in a.terms):
        return _make_ordinal(a.terms)
    return None
