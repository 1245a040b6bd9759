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

from enum import Enum
from math import log2, log10

from .errors import DivisionByZero, ResourceExceeded, Undefined

LT, EQ, GT = -1, 0, 1

_set = object.__setattr__


class _Frozen:
    """Base of the immutable value classes: ``BaseExpansion``,
    ``EvalContext``, ``CoordinateForm``, ``Diagnostic``, ``CutHandle``,
    ``SurInteger`` (which keeps its own hot ``__eq__`` and ``__hash__``,
    and a ``__reduce__`` for its int constructor), ``SurRational``, the two
    cuts, ``RootClassification`` and ``GaussianSurRational``.

    A subclass names its fields in ``__slots__``, in the order its
    ``__init__`` takes them, and sets each with ``_set``.  The base gives
    it what a frozen dataclass would: equality within the exact type and a
    hash, both over the fields, the repr ``Name(field=value, ...)``, an
    AttributeError on any assignment, and a ``__reduce__`` for ``copy`` and
    ``pickle``.  They are not dataclasses: importing ``dataclasses`` and
    building the classes with it took a sixth of the CLI's start-up.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


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


# Deepest normal form any operation builds: w ^^ k nests k levels, and the
# batch record of w ^^ 250 nests 756 levels, which a default ``json.loads``
# reads.  Only powers nest deeper than their operands, so ``rec_pow`` and
# the tower loop in ``hyper`` are the two places that check it, and the
# output walk, one Python frame per level, never meets a deeper value.
MAX_DEPTH = 250


def _depth(a: Ordinal) -> int:
    """Nesting depth of the normal form, 0 for finite values: the length of
    the leading-exponent chain, since depth is monotone in value."""
    d = 0
    while a and a[0][0]:
        a, d = a[0][0], d + 1
    return d


def _check_depth(depth: int) -> None:
    if depth > MAX_DEPTH:
        raise ResourceExceeded(f"value nested too deeply (more than {MAX_DEPTH} levels)")


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
    """Recursive product, distributed over b's normal form left-to-right:
    ``za + e`` (za a's leading exponent) strictly increases with e, so each
    part lies below the one before and the product is the parts in order."""
    if not a or not b:
        return ZERO
    za, ca = a[0]
    out = [(rec_add(za, e), c) for e, c in b if e]
    if not b[-1][0]:
        out += ((za, ca * b[-1][1]), *a[1:])
    return _make(tuple(out))


# log2(10) rounded down to 40 decimals: _LOG2_10 / 10^40 < log2(10) < that + 10^-40
_LOG2_10 = 33219280948873623478703194294893901758648


def _at_least_pow10(n: int, d: int) -> bool:
    """Whether n >= 10**d (n, d >= 0): by bit length where they differ, else
    by log2 of n's top 64 bits, else (within 10^-9) by n >> d >= 5**d."""
    lo, hi = d * _LOG2_10 // 10**40, d * (_LOG2_10 + 1) // 10**40
    if lo == hi and n.bit_length() != lo + 1:
        return n.bit_length() > lo + 1
    s = n.bit_length() - 64  # t is within 10^-13 of log2(n / 10^d)
    t = log2(n >> s) - (d * _LOG2_10 - s * 10**40) / 10**40 if s > 0 else 0
    if abs(t) > 1e-9:
        return t > 0
    return n >> d >= 5**d


def _decimal_digits(n: int) -> int:
    """The number of decimal digits of an int n >= 1, without ``str(n)``."""
    # at most the digit count of 2^(bits - 1) <= n, as 0.30102999566398 is
    # below log10(2); then raised to n's, one or two steps in practice
    d = (n.bit_length() - 1) * 30102999566398 // 10**14 + 1
    while _at_least_pow10(n, d):
        d += 1
    return d


def _check_pow_digits(base: int, exp: int, max_digits: int) -> int | None:
    """Raise ResourceExceeded if base**exp (base, exp >= 0) has more than
    max_digits decimal digits.  Return base**exp when the check had to
    build it, else None.

    base**exp has floor(F) + 1 digits, F = exp * log10(base), so it fits
    exactly when F < max_digits.  Integer bounds on F decide all but a
    narrow band around max_digits, where the power is computed; exp is
    never converted to a float, since it can be astronomical (6 ^^ 6).  The
    message names the power of ten that the digit count exceeds."""
    if base < 2 or exp < 2:
        return None
    b = base.bit_length()
    if exp * b * 30103 < max_digits * 100000:  # log10(base) < b * 0.30103
        return None
    t = _decimal_digits(base) - 1
    if not _at_least_pow10(base - 1, t):  # base is 10**t
        lo = hi = exp * t
    else:
        # log10 of an int is within a few units in the last place; widen
        # it by 2^-40 relative, and bound exp * log10(base) in integers
        num, den = log10(base).as_integer_ratio()
        lo = exp * num * (2**40 - 1) // (den << 40)
        hi = -(-exp * num * (2**40 + 1) // (den << 40))
    if hi < max_digits:
        return None
    if lo < max_digits:
        p = base**exp
        if not _at_least_pow10(p, max_digits):
            return p
    # 10^k <= max(lo, max_digits) <= F < digits
    k = _decimal_digits(max(lo, max_digits)) - 1
    raise ResourceExceeded(
        f"finite power needs a number with more than 10^{k} "
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
    digit budget), and results by ``MAX_DEPTH``: a power past either
    raises :class:`ResourceExceeded`.
    """
    p = _pow(a, b, max_digits)
    _check_depth(_depth(p))
    return p


def _pow(a: Ordinal, b: Ordinal, max_digits: int) -> Ordinal:
    # rec_pow without the depth check, for a caller that has bounded the depth
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
            n = int(b)
            p = _check_pow_digits(m, n, max_digits)
            return Ordinal(m**n if p is None else p)
        # m^(w^e * k) = w^(w^(e-1) * k) for finite e, w^(w^e * k) for limit e
        # _dec_exp is strictly increasing, so the terms stay in order
        head_exp = _make(tuple((_dec_exp(e), k) for e, k in b if e))
        head = _make(((head_exp, 1),))
        if finite_part:
            p = _check_pow_digits(m, finite_part, max_digits)
            return rec_mul(head, Ordinal(m**finite_part if p is None else p))
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


def rec_sum(seq, n: int) -> Ordinal:
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


class BaseExpansion(_Frozen):
    """Positional expansion of an ordinal in an arbitrary base > 1.

    ``digits`` is a tuple of (exponent, digit) pairs with strictly decreasing
    exponents and 0 < digit < base; both entries are ordinals.
    """

    __slots__ = ("base", "digits")

    def __init__(self, base: Ordinal, digits: tuple):
        _set(self, "base", base)
        _set(self, "digits", digits)

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


def _encode_terms(terms, memo: dict) -> tuple:
    """One walk of a term sequence: its JSON array text and its canonical text.

    ``terms`` are an ordinal's, or a surinteger's with signed coefficients.
    ``memo`` maps each exponent object already met in the value to its
    ``{"terms": [...]}`` JSON and its ``w^...`` body text, so each shared
    subterm is rendered once.  It is keyed by ``id``: the value keeps its
    exponents alive through the walk, equal exponents are nearly always one
    shared object, and hashing a nested tuple would walk all of it at every
    level.
    """
    js = []
    parts = []
    for e, c in terms:
        cs = str(c)
        if c < 0:
            parts.append(" - ")
            ct = cs[1:]
        else:
            parts.append(" + ")
            ct = cs
        if not e:
            js.append(f'{{"exp": {{"terms": []}}, "coeff": "{cs}"}}')
            parts.append(ct)
            continue
        m = memo.get(id(e))
        if m is None:
            ej, et = _encode_terms(e, memo)
            if not e[0][0]:
                body = "w" if et == "1" else "w^" + et
            elif et == "w":
                body = "w^w"
            else:
                body = f"w^({et})"
            m = memo[id(e)] = (f'{{"terms": {ej}}}', body)
        js.append(f'{{"exp": {m[0]}, "coeff": "{cs}"}}')
        parts.append(m[1] if ct == "1" else f"{m[1]}*{ct}")
    if not parts:
        return "[]", "0"
    parts[0] = "-" if parts[0] == " - " else ""
    return f"[{', '.join(js)}]", "".join(parts)


def ordinal_str(a: Ordinal) -> str:
    """Canonical text form, e.g. ``w^(w^2)*3 + w*2 + 7``."""
    return _encode_terms(a, {})[1]
