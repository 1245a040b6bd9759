"""The discretely ordered ring of signed normal forms ("surintegers").

A surinteger looks like an ordinal normal form whose coefficients may be any
nonzero integer: ``w^5*4 - w^4*2 - w^2*7 + w*3 - 1``.  Equivalently it is a
pair of ordinary ordinals sharing no power of omega, the negative part and
the positive part; :func:`to_coordinates`/:func:`from_coordinates` convert
between the two views.  Addition is coefficientwise, multiplication is the
distributive product with natural exponent sums, and the order compares the
first term where two values disagree.

Truncating at omega gives the ordinary integers, the unique discrete cyclic
ring; truncating at any multiplication-closed ordinal gives one of a whole
tower of discretely ordered rings, and :func:`in_lambda_ring` decides
membership.
"""

from __future__ import annotations

from math import gcd

from .errors import NOT_CYCLIC, InvalidLambda, Undefined
from .natural import ClosureKind, _convolve_terms, _merge_terms, is_closure_number
from .ordinal import (
    EQ,
    GT,
    LT,
    ZERO,
    Ordinal,
    validate as validate_ordinal,
)
from .ordinal import _binary_pow, _encode_terms, _Frozen, _set
from .ordinal import _make as _make_ordinal


class SurInteger:
    """Immutable signed normal form; exponents strictly decreasing,
    coefficients nonzero integers."""

    __slots__ = ("terms",)

    terms: tuple

    def __init__(self, value: int = 0):
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"SurInteger() takes an int, got {value!r}")
        self.terms = ((ZERO, value),) if value else ()

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


def _make(terms: tuple) -> SurInteger:
    a = SurInteger.__new__(SurInteger)
    a.terms = terms
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
    """Total order: decided at the first index where the term lists differ;
    a missing term counts as coefficient zero at that exponent."""
    ta, tb = a.terms, b.terms
    i = 0
    while i < len(ta) and i < len(tb):
        (ea, ca), (eb, cb) = ta[i], tb[i]
        if ea == eb:
            if ca != cb:
                return LT if ca < cb else GT
            i += 1
            continue
        if ea > eb:
            return GT if ca > 0 else LT
        return LT if cb > 0 else GT
    if i < len(ta):
        return GT if ta[i][1] > 0 else LT
    if i < len(tb):
        return LT if tb[i][1] > 0 else GT
    return EQ


def si_abs(a: SurInteger) -> SurInteger:
    # the sign of a surinteger is its leading coefficient's
    return neg(a) if a.terms and a.terms[0][1] < 0 else a


def si_pow(a: SurInteger, n: int) -> SurInteger:
    if n < 0:
        raise Undefined("surinteger powers take natural exponents")
    return _binary_pow(a, n, si_mul, S_ONE)


def si_scale(a: SurInteger, k: int) -> SurInteger:
    if k == 0:
        return S_ZERO
    return _make(tuple((e, c * k) for e, c in a.terms))


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


def surinteger_str(a: SurInteger) -> str:
    """Canonical signed text form, e.g. ``w^2*2 - w*3 + 1``."""
    return _encode_terms(a.terms, {})[1]


def to_ordinal(a: SurInteger):
    """The plain ordinal with the same terms, or None if any sign is negative."""
    if all(c > 0 for _, c in a.terms):
        return _make_ordinal(a.terms)
    return None
