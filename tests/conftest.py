"""Shared helpers: expression-based value builders and hypothesis strategies."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import settings
import hypothesis.strategies as st

from transfinita import Ordinal, SurInteger, SurRational
from transfinita.expr import as_ordinal, as_surrational, evaluate, promote
from transfinita.parser import parse
from transfinita.surinteger import _make as _make_si
from transfinita.ordinal import _make as _make_ordinal

settings.register_profile("suite", deadline=None, max_examples=120)
settings.load_profile("suite")


def o(text: str) -> Ordinal:
    """Ordinal from expression text (taking the parser along for the ride)."""
    return as_ordinal(evaluate(parse(text)))


def si(text: str) -> SurInteger:
    return promote(evaluate(parse(text)), 1)


def q(text: str) -> SurRational:
    return as_surrational(evaluate(parse(text)))


@pytest.fixture(autouse=True)
def default_recursion_limit():
    # bench/test_bench.py raises the limit when it is imported, and pytest
    # collects both directories first; the tests here are written for the
    # interpreter's default (w ^^ 249 must overflow it, for one)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def _merge_ordinal(pairs):
    bucket = {}
    for e, c in pairs:
        bucket[e] = bucket.get(e, 0) + c
    terms = tuple((e, bucket[e]) for e in sorted(bucket, reverse=True))
    return _make_ordinal(terms)


def ordinals(depth: int = 2, max_terms: int = 3, max_coeff: int = 9):
    if depth == 0:
        return st.integers(0, 12).map(Ordinal)
    sub = ordinals(depth - 1, max_terms, max_coeff)
    return st.lists(
        st.tuples(sub, st.integers(1, max_coeff)), max_size=max_terms
    ).map(_merge_ordinal)


def _merge_surinteger(pairs):
    bucket = {}
    for e, c in pairs:
        bucket[e] = bucket.get(e, 0) + c
    terms = tuple((e, bucket[e]) for e in sorted(bucket, reverse=True) if bucket[e])
    return _make_si(terms)


def surintegers(depth: int = 2, max_terms: int = 3, max_coeff: int = 9):
    coeff = st.integers(-max_coeff, max_coeff).filter(bool)
    if depth == 0:
        return st.integers(-12, 12).map(SurInteger)
    sub = ordinals(depth - 1, max_terms, max_coeff)
    return st.lists(st.tuples(sub, coeff), max_size=max_terms).map(_merge_surinteger)


def surrationals(depth: int = 1, max_terms: int = 2, max_coeff: int = 9):
    num = surintegers(depth, max_terms, max_coeff)
    den = surintegers(depth, max_terms, max_coeff).filter(lambda a: not a.is_zero)
    return st.tuples(num, den).map(lambda nd: SurRational(nd[0], nd[1]))
