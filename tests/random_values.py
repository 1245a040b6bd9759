"""Seeded random value generators for the test suite."""

from __future__ import annotations

from transfinita.cuts import GaussianSurRational
from transfinita.ordinal import ZERO, Ordinal, compare
from transfinita.ordinal import _make as _make_ordinal
from transfinita.surinteger import SurInteger, _make as _make_si
from transfinita.surrational import SurRational


def random_ordinal(rng, depth: int = 2, max_terms: int = 3, max_coeff: int = 9) -> Ordinal:
    """Random valid ordinal with bounded nesting depth and coefficients."""
    if depth == 0:
        return Ordinal(rng.randrange(0, max_coeff + 1))
    exps = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        e = random_ordinal(rng, depth - 1, max_terms, max_coeff)
        exps.setdefault(e, rng.randint(1, max_coeff))
    ordered = sorted(exps, reverse=True)
    return _make_ordinal(tuple((e, exps[e]) for e in ordered))


def random_ordinal_below(a: Ordinal, rng) -> Ordinal:
    """Random ordinal strictly below ``a`` (a > 0)."""
    assert a.terms, "no ordinal lies below 0"
    for _ in range(64):
        x = _shrink_once(a, rng)
        if compare(x, a) < 0:
            return x
    return ZERO


def _shrink_once(a: Ordinal, rng) -> Ordinal:
    if a.is_finite:
        return Ordinal(rng.randrange(int(a)))
    k = rng.randrange(len(a.terms))
    e, c = a.terms[k]
    prefix = a.terms[:k]
    mode = rng.random()
    if mode < 0.35 and c > 1:
        tail = ((e, rng.randint(1, c - 1)),)
        return _make_ordinal(prefix + tail)
    if mode < 0.7 and e.terms:
        e2 = random_ordinal_below(e, rng)
        if not prefix or prefix[-1][0] > e2:
            extra = ((e2, rng.randint(1, max(1, c))),) if (e2.terms or rng.random() < 0.8) else ()
            return _make_ordinal(prefix + extra)
    return _make_ordinal(prefix)


def random_surinteger(rng, depth: int = 2, max_terms: int = 3, max_coeff: int = 9) -> SurInteger:
    """Random valid surinteger: random ordinal shape with random signs."""
    o = random_ordinal(rng, depth, max_terms, max_coeff)
    return _make_si(tuple((e, c if rng.random() < 0.5 else -c) for e, c in o.terms))


def random_surrational(rng, depth: int = 1, max_terms: int = 2, max_coeff: int = 9) -> SurRational:
    """Random surrational with a nonzero (hence strictly positive) denominator."""
    num = random_surinteger(rng, depth, max_terms, max_coeff)
    den = random_surinteger(rng, depth, max_terms, max_coeff)
    while den.is_zero:
        den = random_surinteger(rng, depth, max_terms, max_coeff)
    return SurRational(num, den)


def random_gaussian(rng, depth: int = 1, max_terms: int = 2, max_coeff: int = 9) -> GaussianSurRational:
    return GaussianSurRational(
        random_surrational(rng, depth, max_terms, max_coeff),
        random_surrational(rng, depth, max_terms, max_coeff),
    )
