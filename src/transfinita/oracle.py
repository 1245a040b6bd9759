"""Independent definitional oracle on a small fragment.

The closed-form ordinal arithmetic is validated against something that does
not share its code: literal successor/limit unfoldings of the defining
recursions, carried out on the degree-one fragment ``w*a + b`` (a pair of
small naturals).  Limits are evaluated along the canonical cofinal sequence
and stabilised by inspection: an eventually constant run is its own limit,
a fixed first component with an unbounded second bumps the first, and a
growing first component has escaped the fragment.

The fragment deliberately stops below w^2: one degree higher the supremum
rule would have to reproduce the very closed forms under test.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import FragmentExceeded
from .ordinal import ZERO, Ordinal
from .ordinal import _make as _make_ordinal

DEFAULT_BOUND = 8
_SAMPLES = 16  # cofinal samples used to stabilise a limit


class SmallOrdinal(NamedTuple):
    """Degree-one fragment value ``w*a + b``; ordered lexicographically."""

    a: int
    b: int

    def to_ordinal(self) -> Ordinal:
        terms = []
        if self.a:
            terms.append((_make_ordinal(((ZERO, 1),)), self.a))
        if self.b:
            terms.append((ZERO, self.b))
        return _make_ordinal(tuple(terms))


class _BeyondFragment(Exception):
    pass


# The recursions are monotone, so an intermediate whose omega-coefficient is
# this large can only belong to a computation whose result has already left
# the fragment; cutting it off early keeps the limit recursion shallow.
_WORK_LIMIT = 128


def _check(x: SmallOrdinal, bound: int) -> SmallOrdinal:
    if x.a > bound or x.b > bound:
        raise FragmentExceeded(f"{x} escapes the bound {bound}")
    return x


def _guard(x: SmallOrdinal, y: SmallOrdinal) -> None:
    if x.a > _WORK_LIMIT or y.a > _WORK_LIMIT:
        raise _BeyondFragment


@lru_cache(maxsize=None)
def _add(x: SmallOrdinal, y: SmallOrdinal) -> SmallOrdinal:
    _guard(x, y)
    if y == (0, 0):
        return x
    if y.b:
        # successor clause, applied y.b times in one step: each application
        # turns (p, q) into (p, q+1), so b of them add b to the finite part
        p = x if y.a == 0 else _add(x, SmallOrdinal(y.a, 0))
        return SmallOrdinal(p.a, p.b + y.b)
    # limit clause: supremum over w*(a-1) + n
    return _limit(lambda n: _add(x, SmallOrdinal(y.a - 1, n)))


@lru_cache(maxsize=None)
def _mul(x: SmallOrdinal, y: SmallOrdinal) -> SmallOrdinal:
    _guard(x, y)
    if y == (0, 0):
        return SmallOrdinal(0, 0)
    if y.b:
        # successor clause as a bottom-up fold to keep the stack flat
        acc = SmallOrdinal(0, 0) if y.a == 0 else _mul(x, SmallOrdinal(y.a, 0))
        for _ in range(y.b):
            acc = _add(acc, x)
        return acc
    return _limit(lambda n: _mul(x, SmallOrdinal(y.a - 1, n)))


@lru_cache(maxsize=None)
def _pow(x: SmallOrdinal, y: SmallOrdinal) -> SmallOrdinal:
    _guard(x, y)
    if y == (0, 0):
        return SmallOrdinal(0, 1)
    if y.b:
        acc = SmallOrdinal(0, 1) if y.a == 0 else _pow(x, SmallOrdinal(y.a, 0))
        for _ in range(y.b):
            acc = _mul(acc, x)
        return acc
    return _limit(lambda n: _pow(x, SmallOrdinal(y.a - 1, n)))


def _limit(gen) -> SmallOrdinal:
    vals = [gen(n) for n in range(_SAMPLES)]
    tail = vals[-6:]
    if all(v == tail[0] for v in tail):
        return tail[0]
    firsts = {v.a for v in tail}
    if len(firsts) == 1:
        seconds = [v.b for v in tail]
        if all(p < q for p, q in zip(seconds, seconds[1:])):
            return SmallOrdinal(tail[0].a + 1, 0)
        raise _BeyondFragment  # no stable pattern: refuse rather than guess
    # first component still climbing: the supremum is at least w^2
    raise _BeyondFragment


def def_rec_add(x: SmallOrdinal, y: SmallOrdinal, bound: int = DEFAULT_BOUND) -> SmallOrdinal:
    """Recursive sum by literal unfolding of the defining recursion."""
    _check(x, bound), _check(y, bound)
    try:
        return _check(_add(x, y), bound)
    except _BeyondFragment:
        raise FragmentExceeded(f"{x} +. {y} leaves the degree-one fragment") from None


def def_rec_mul(x: SmallOrdinal, y: SmallOrdinal, bound: int = DEFAULT_BOUND) -> SmallOrdinal:
    """Recursive product by literal unfolding of the defining recursion."""
    _check(x, bound), _check(y, bound)
    try:
        return _check(_mul(x, y), bound)
    except _BeyondFragment:
        raise FragmentExceeded(f"{x} *. {y} leaves the degree-one fragment") from None


def def_rec_pow(x: SmallOrdinal, y: SmallOrdinal, bound: int = DEFAULT_BOUND) -> SmallOrdinal:
    """Recursive power by literal unfolding (sub-fragment where it fits)."""
    _check(x, bound), _check(y, bound)
    try:
        return _check(_pow(x, y), bound)
    except _BeyondFragment:
        raise FragmentExceeded(f"{x} ^ {y} leaves the degree-one fragment") from None
