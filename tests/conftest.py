"""Shared helpers: expression-based value builders and hypothesis strategies."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings
import hypothesis.strategies as st

from transfinita import Ordinal, SurInteger, SurRational
from transfinita.expr import as_ordinal, as_surrational, evaluate, promote
from transfinita.parser import parse
from transfinita.surinteger import _make as _make_si
from transfinita.ordinal import _FINITE_TABLE_SIZE
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
    # interpreter's default (the parser's nesting cap must hold under it,
    # and so must the depth bound: a value of ordinal.MAX_DEPTH levels must
    # compare, print and decode from its record)
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


# finite exponents dense near 0, sparse past the finite table's size, and
# at 2^64 and up, which the table does not keep
FINITE_EXPONENTS = st.one_of(
    st.integers(0, 40),
    st.integers(0, 3 * _FINITE_TABLE_SIZE),
    st.integers(2**64, 2**64 + 40),
)


def polynomials(min_terms: int = 2, max_terms: int = 40):
    """Polynomials in w (every exponent finite) as surintegers, with signed
    coefficients up to 10^40 and small ones too, so that products cancel."""
    coeff = st.one_of(st.integers(-2, 2), st.integers(-(10**40), 10**40)).filter(bool)
    return st.dictionaries(FINITE_EXPONENTS, coeff, min_size=min_terms, max_size=max_terms).map(
        lambda d: _make_si(tuple((Ordinal(k), d[k]) for k in sorted(d, reverse=True)))
    )


def surrationals(depth: int = 1, max_terms: int = 2, max_coeff: int = 9):
    num = surintegers(depth, max_terms, max_coeff)
    den = surintegers(depth, max_terms, max_coeff).filter(lambda a: not a.is_zero)
    return st.tuples(num, den).map(lambda nd: SurRational(nd[0], nd[1]))


def _ref_exp_diff(er, eb):
    """Reference exponent quotient on dicts: er - eb read as monomials in
    the x_z (w^(w^z*k + ...) is x_z^k * ...), or None when eb does not
    divide er."""
    left = dict(er)
    for e, k in eb:
        have = left.get(e, 0)
        if have < k:
            return None
        if have == k:
            del left[e]
        else:
            left[e] = have - k
    exps = sorted(left, reverse=True)
    return _make_ordinal(tuple((e, left[e]) for e in exps))


def output_in_child(code: str) -> str:
    """Run ``code`` in a fresh interpreter, after ``from transfinita import
    *``, and return what it printed; a child still running after 30 s fails
    the test instead of holding up the suite."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = f"from transfinita import *\n{code}"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=30, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout


def seconds_in_child(code: str) -> float:
    """Run ``code`` in a fresh interpreter and return the seconds it took
    there."""
    probe = f"import time\nt = time.perf_counter()\n{code}\nprint(time.perf_counter() - t)"
    return float(output_in_child(probe).split()[-1])
