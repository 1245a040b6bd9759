"""Ordinals below the first fixed point of ``x -> w^x``, in iterated Cantor
normal form, with the recursive (non-commutative) arithmetic.

An ordinal is a finite descending sum ``w^e1*c1 + ... + w^ek*ck`` with
positive integer coefficients and exponents that are themselves ordinals of
the same shape.  The empty sum is 0.  This notation covers exactly the
ordinals whose normal form terminates after finitely many nestings; anything
beyond that boundary raises :class:`NotRepresentable` where it can arise.

The recursive operations ``rec_add``/``rec_mul``/``rec_pow`` implement the
successor/limit recursions through their standard closed forms on normal
forms; the definitional recursions themselves live in :mod:`.oracle` and the
two are checked against each other by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import DivisionByZero, ResourceExceeded, Undefined

LT, EQ, GT = -1, 0, 1

# Digit budget for finite powers.  A guard estimates the decimal size of
# m**n before computing it and raises ResourceExceeded past the budget.
DEFAULT_MAX_DIGITS = 10**6


class Ordinal(tuple):
    """Immutable ordinal in iterated Cantor normal form.

    The value is its own tuple of ``(exponent, coefficient)`` terms, with
    strictly decreasing Ordinal exponents and integer coefficients >= 1.
    Python's tuple order on these nested tuples is exactly the normal-form
    order, so ``==``, ``hash``, ``<`` and ``sorted`` run natively.  All
    arithmetic lives in module functions because there are two distinct
    arithmetics (recursive and natural) and operator overloading would have
    to pick one; ``+`` and ``*`` therefore raise TypeError instead of
    concatenating or repeating term tuples.  Slices of an Ordinal are plain
    tuples, so code that splices terms concatenates slices.
    """

    __slots__ = ()

    def __new__(cls, value: int = 0):
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"Ordinal() takes a non-negative int, got {value!r}")
        if value < 0:
            raise Undefined("ordinals are non-negative")
        return tuple.__new__(cls, ((ZERO, value),) if value else ())

    @property
    def terms(self) -> tuple:
        """The normal-form terms: the value itself."""
        return self

    @property
    def is_finite(self) -> bool:
        return not self or (len(self) == 1 and not self[0][0])

    @property
    def is_zero(self) -> bool:
        return not self

    def __int__(self) -> int:
        if not self:
            return 0
        if self.is_finite:
            return self[0][1]
        raise Undefined("transfinite ordinal has no integer value")

    def _no_operator(self, other):
        raise TypeError(
            "ordinals have two arithmetics: use rec_add/nat_add or rec_mul/nat_mul"
        )

    __add__ = __radd__ = __mul__ = __rmul__ = _no_operator
    del _no_operator

    def __reduce__(self):
        return _make, (tuple(self),)

    def __repr__(self) -> str:
        return f"Ordinal[{ordinal_str(self)}]"


def _make(terms: tuple) -> Ordinal:
    return tuple.__new__(Ordinal, terms)


ZERO = Ordinal(0)
ONE = Ordinal(1)
OMEGA: Ordinal = _make(((ONE, 1),))

# Finite ordinals by value, for the term kernel's finite exponent sums and
# for number literals.  Emptied when full; values past 2^64 are not kept.
_FINITE_TABLE: dict = {}
_FINITE_TABLE_SIZE = 1024


def _finite(k: int) -> Ordinal:
    """The ordinal k, for an int k >= 0, from the finite-ordinal table."""
    o = _FINITE_TABLE.get(k)
    if o is None:
        o = _make(((ZERO, k),) if k else ())
        if len(_FINITE_TABLE) >= _FINITE_TABLE_SIZE:
            _FINITE_TABLE.clear()
        if not k >> 64:
            _FINITE_TABLE[k] = o
    return o


def validate(o: Ordinal) -> None:
    """Check all normal-form invariants, recursively.  Raises ValueError."""
    if not isinstance(o, Ordinal):
        raise ValueError(f"not an Ordinal: {o!r}")
    prev = None
    for t in o:
        if not (isinstance(t, tuple) and len(t) == 2):
            raise ValueError(f"bad term {t!r}")
        e, c = t
        if not isinstance(c, int) or isinstance(c, bool) or c < 1:
            raise ValueError(f"coefficient must be a positive int, got {c!r}")
        validate(e)
        if prev is not None and prev <= e:
            raise ValueError("exponents must be strictly decreasing")
        prev = e


class OrdinalClass(Enum):
    ZERO = "zero"
    SUCCESSOR = "successor"
    LIMIT = "limit"


def compare(a: Ordinal, b: Ordinal) -> int:
    """Total order; returns LT, EQ or GT (-1, 0, 1).

    Lexicographic on term lists: exponents compare recursively, then
    coefficients, then the remaining terms; a shorter list that is a prefix
    of the other is smaller.  That is Python's tuple order on the value.
    """
    return (a > b) - (a < b)


def classify(a: Ordinal) -> OrdinalClass:
    """Zero / successor / limit trichotomy, read off the last term."""
    if not a:
        return OrdinalClass.ZERO
    if not a[-1][0]:
        return OrdinalClass.SUCCESSOR
    return OrdinalClass.LIMIT


def successor(a: Ordinal) -> Ordinal:
    if a and not a[-1][0]:
        e, c = a[-1]
        return _make(a[:-1] + ((e, c + 1),))
    return _make(a[:] + ((ZERO, 1),))


def predecessor(a: Ordinal) -> Ordinal:
    if classify(a) is not OrdinalClass.SUCCESSOR:
        raise Undefined("only successor ordinals have a predecessor")
    e, c = a[-1]
    if c > 1:
        return _make(a[:-1] + ((e, c - 1),))
    return _make(a[:-1])


def rec_add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Recursive (non-commutative) sum: absorbs a's tail below b's lead."""
    if not b:
        return a
    if not a:
        return b
    e = b[0][0]
    i, n = 0, len(a)
    while i < n and a[i][0] > e:
        i += 1
    if i < n and a[i][0] == e:
        merged = ((e, a[i][1] + b[0][1]),) + b[1:]
    else:
        merged = b[:]
    return _make(a[:i] + merged)


def rec_sub_left(a: Ordinal, b: Ordinal) -> Ordinal:
    """The unique g with ``rec_add(a, g) == b``; requires a < b."""
    if not a < b:
        raise Undefined("left subtraction needs a < b")
    i = 0
    while i < len(a) and a[i] == b[i]:
        i += 1
    if i == len(a):
        return _make(b[i:])
    (ea, ca), (eb, cb) = a[i], b[i]
    if ea < eb:
        return _make(b[i:])
    # a < b rules out ea > eb and ca > cb at the first difference
    return _make(((eb, cb - ca),) + b[i + 1:])


def rec_mul(a: Ordinal, b: Ordinal) -> Ordinal:
    """Recursive product, distributed over b's normal form left-to-right."""
    if not a or not b:
        return ZERO
    za, ca = a[0]
    out = ZERO
    for e, c in b:
        if e:
            part = _make(((rec_add(za, e), c),))
        else:
            part = _make(((za, ca * c),) + a[1:])
        out = rec_add(out, part)
    return out


def _check_pow_digits(base: int, exp: int, max_digits: int) -> None:
    """Raise ResourceExceeded if base**exp (base, exp >= 0) may pass max_digits."""
    # bits(result) = exp*log2(base) <= exp*bit_length(base); digits ~ bits*0.30103
    est_digits = exp * base.bit_length() * 30103 // 100000 + 1
    if base > 1 and exp > 1 and est_digits > max_digits:
        # the estimate itself can be astronomical: report only its size
        raise ResourceExceeded(
            f"finite power needs a number with more than 10^{est_digits.bit_length() // 4} "
            f"digits, budget is 10^{len(str(max_digits)) - 1}-ish ({max_digits})"
        )


def _int_log_floor(c: int, m: int) -> int:
    """Largest n with m**n <= c, for m >= 2, c >= 1."""
    n, p = 0, 1
    while p * m <= c:
        p *= m
        n += 1
    return n


def _dec_exp(e: Ordinal) -> Ordinal:
    # e "minus one" for the finite-base power rule: finite e >= 1 decrements,
    # transfinite e is a fixed point of that shift and stays put.
    if e.is_finite:
        return Ordinal(int(e) - 1)
    return e


def _inc_exp(x: Ordinal) -> Ordinal:
    # inverse of _dec_exp
    if x.is_finite:
        return Ordinal(int(x) + 1)
    return x


def _binary_pow(a, n: int, mul, one):
    # a**n by square-and-multiply in (mul, one); powers of one element commute.
    result, base = one, a
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def rec_pow(a: Ordinal, b: Ordinal, max_digits: int = DEFAULT_MAX_DIGITS) -> Ordinal:
    """Recursive exponentiation ``a^b`` via the normal-form case split.

    Finite powers of finite bases are guarded by ``max_digits`` (decimal
    digit budget); exceeding it raises :class:`ResourceExceeded`.
    """
    if not b:
        return ONE
    if not a:
        return ZERO  # 0^b = 0 for b > 0
    if a == ONE:
        return ONE
    finite_part = b[-1][1] if not b[-1][0] else 0
    if a.is_finite:
        m = int(a)
        if b.is_finite:
            _check_pow_digits(m, int(b), max_digits)
            return Ordinal(m ** int(b))
        # m^(w^e * k) = w^(w^(e-1) * k) for finite e, w^(w^e * k) for limit e
        head_exp = ZERO
        for e, k in b:
            if e:
                head_exp = rec_add(head_exp, _make(((_dec_exp(e), k),)))
        head = _make(((head_exp, 1),))
        if finite_part:
            _check_pow_digits(m, finite_part, max_digits)
            return rec_mul(head, Ordinal(m**finite_part))
        return head
    za = a[0][0]
    if len(a) == 1 and a[0][1] == 1:
        # (w^z)^b = w^(z*b): one term, whatever b is
        return _make(((b if za == ONE else rec_mul(za, b), 1),))
    # transfinite base: a^(limit part) collapses to a single omega power
    limit = _make(b[:-1]) if finite_part else b
    if limit:
        head = _make(((rec_mul(za, limit), 1),))
        if finite_part:
            return rec_mul(head, _binary_pow(a, finite_part, rec_mul, ONE))
        return head
    return _binary_pow(a, finite_part, rec_mul, ONE)


def rec_sum(seq: Sequence[Ordinal], n: int) -> Ordinal:
    """Left fold of rec_add over the first n entries (missing entries are 0)."""
    out = ZERO
    for x in seq[:n]:
        out = rec_add(out, x)
    return out


def ordinal_divmod(a: Ordinal, d: Ordinal) -> tuple:
    """Unique (q, r) with ``a == rec_add(rec_mul(d, q), r)`` and r < d."""
    if not d:
        raise DivisionByZero("ordinal division by zero")
    q, r = ZERO, a
    zd, cd = d[0]
    while r >= d:
        zr, cr = r[0]
        if zr > zd:
            x = rec_sub_left(zd, zr)
            q = rec_add(q, _make(((x, cr),)))
            r = _make(r[1:])
        else:
            k = cr // cd
            cand = rec_mul(d, Ordinal(k))
            if cand > r:
                k -= 1
                cand = rec_mul(d, Ordinal(k))
            q = rec_add(q, Ordinal(k))
            r = rec_sub_left(cand, r) if cand < r else ZERO
            break
    return q, r


@dataclass(frozen=True)
class BaseExpansion:
    """Positional expansion of an ordinal in an arbitrary base > 1.

    ``digits`` is a tuple of (exponent, digit) pairs with strictly decreasing
    exponents and 0 < digit < base; both entries are ordinals.
    """

    base: Ordinal
    digits: tuple

    def recompose(self) -> Ordinal:
        out = ZERO
        for e, d in self.digits:
            out = rec_add(out, rec_mul(rec_pow(self.base, e), d))
        return out


def _log_floor(base: Ordinal, a: Ordinal) -> Ordinal:
    """Largest g with base^g <= a, for base > 1, a >= 1."""
    if a < base:
        return ZERO
    if base.is_finite:
        m = int(base)
        if a.is_finite:
            return Ordinal(_int_log_floor(int(a), m))
        # match the leading omega power of a exactly, then fit a finite tail
        zeta, c = a[0]
        trans = tuple((_inc_exp(x), k) for x, k in zeta)
        g = rec_add(_make(trans), Ordinal(_int_log_floor(c, m)))
        return g
    g, _ = ordinal_divmod(a[0][0], base[0][0])
    if rec_pow(base, g) > a:
        g = predecessor(g)
    return g


def base_expand(a: Ordinal, base: Ordinal) -> BaseExpansion:
    """Greedy positional expansion; recomposes to ``a`` exactly.

    For base omega the digits coincide with the normal-form coefficients.
    """
    if base <= ONE:
        raise Undefined("expansion base must exceed 1")
    if not a:
        raise Undefined("0 has no expansion")
    if base == OMEGA:
        return BaseExpansion(base, tuple((e, Ordinal(c)) for e, c in a))
    digits = []
    rest = a
    while rest:
        g = _log_floor(base, rest)
        d, rest = ordinal_divmod(rest, rec_pow(base, g))
        digits.append((g, d))
    return BaseExpansion(base, tuple(digits))


def depth(a: Ordinal) -> int:
    """Nesting depth of the normal form: 0 for finite values."""
    if a.is_finite:
        return 0
    return 1 + max(depth(e) for e, _ in a)


def ordinal_str(a: Ordinal) -> str:
    """Canonical text form, e.g. ``w^(w^2)*3 + w*2 + 7``."""
    if not a:
        return "0"
    return " + ".join(_term_str(e, c) for e, c in a)


def _term_str(e: Ordinal, c: int) -> str:
    if not e:
        return str(c)
    if e == ONE:
        body = "w"
    elif e.is_finite:
        body = f"w^{int(e)}"
    elif e == OMEGA:
        body = "w^w"
    else:
        body = f"w^({ordinal_str(e)})"
    return body if c == 1 else f"{body}*{c}"
