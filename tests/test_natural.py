"""Natural (commutative) arithmetic and closure-point predicates."""

import random

import pytest
import hypothesis.strategies as st
from hypothesis import example, given

from transfinita import (
    LT,
    OMEGA,
    ONE,
    ZERO,
    ClosureKind,
    NotRepresentable,
    Ordinal,
    SurInteger,
    Undefined,
    compare,
    is_closure_number,
    nat_add,
    nat_mul,
    nat_sum,
    next_closure,
    rec_add,
    rec_mul,
    rec_pow,
    si_add,
    si_mul,
)
from transfinita.natural import _convolve_terms
from transfinita.ordinal import _FINITE_TABLE, _FINITE_TABLE_SIZE, _finite, _make, validate
from transfinita.surinteger import validate as validate_si

from conftest import _merge_surinteger, o, ordinals
from random_values import random_ordinal_below


def closure_counterexample(kind: ClosureKind, a: Ordinal, rng, tries: int = 40):
    """Bounded random refuter for the structural decision.

    Samples witnesses below ``a`` and checks the defining condition,
    returning a violating pair (or single ordinal for absorption kinds)
    if one is found, else None.  Cross-checks :func:`is_closure_number`
    in both directions.
    """
    if not a:
        return None
    for _ in range(tries):
        b = random_ordinal_below(a, rng)
        if kind is ClosureKind.GAMMA_ADD:
            if rec_add(b, a) != a:
                return b
        elif kind is ClosureKind.DELTA_MUL:
            if b.is_zero:
                continue
            if rec_mul(b, a) != a:
                return b
        elif kind is ClosureKind.EPSILON_EXP:
            if b <= ONE:
                continue
            if rec_pow(b, a) != a:
                return b
        elif kind is ClosureKind.NAT_ADD:
            c = random_ordinal_below(a, rng)
            if nat_add(b, c) >= a:
                return (b, c)
        else:  # NAT_MUL
            c = random_ordinal_below(a, rng)
            if nat_mul(b, c) >= a:
                return (b, c)
    return None


class TestNatAdd:
    def test_commutes_where_recursive_does_not(self):
        assert nat_add(ONE, OMEGA) == o("w + 1")
        assert nat_add(OMEGA, ONE) == o("w + 1")

    def test_coefficientwise_merge(self):
        assert nat_add(o("w^2 + w*3"), o("w*5 + 2")) == o("w^2 + w*8 + 2")
        # nested exponent sets here coincide with the recursive sum
        assert rec_add(o("w^2 + w*3"), o("w*5 + 2")) == o("w^2 + w*8 + 2")

    @given(ordinals())
    def test_zero_identity(self, a):
        assert nat_add(a, ZERO) == a

    @given(ordinals(), ordinals())
    def test_commutative(self, a, b):
        assert nat_add(a, b) == nat_add(b, a)

    @given(ordinals(), ordinals(), ordinals())
    def test_associative(self, a, b, c):
        assert nat_add(nat_add(a, b), c) == nat_add(a, nat_add(b, c))

    @given(ordinals(), ordinals())
    def test_result_is_normal(self, a, b):
        validate(nat_add(a, b))


class TestNatMul:
    def test_four_term_expansion(self):
        assert nat_mul(o("w + 1"), o("w + 1")) == o("w^2 + w*2 + 1")

    def test_contrast_with_recursive_product(self):
        assert nat_mul(Ordinal(2), OMEGA) == o("w*2")
        assert rec_mul(Ordinal(2), OMEGA) == OMEGA

    @given(ordinals())
    def test_one_identity(self, a):
        assert nat_mul(a, ONE) == a

    @given(ordinals(), ordinals())
    def test_commutative(self, a, b):
        assert nat_mul(a, b) == nat_mul(b, a)

    @given(ordinals(depth=1), ordinals(depth=1), ordinals(depth=1))
    def test_associative(self, a, b, c):
        assert nat_mul(nat_mul(a, b), c) == nat_mul(a, nat_mul(b, c))

    @given(ordinals(depth=1), ordinals(depth=1), ordinals(depth=1))
    def test_distributes_over_nat_add(self, a, b, c):
        assert nat_mul(a, nat_add(b, c)) == nat_add(nat_mul(a, b), nat_mul(a, c))

    @given(ordinals(), ordinals())
    def test_result_is_normal(self, a, b):
        validate(nat_mul(a, b))


class TestNatSum:
    def test_fold(self):
        assert nat_sum([OMEGA, ONE, OMEGA], 3) == o("w*2 + 1")

    def test_permutation_invariant(self):
        seq = [OMEGA, ONE, OMEGA]
        assert nat_sum(list(reversed(seq)), 3) == nat_sum(seq, 3)

    def test_empty(self):
        assert nat_sum([], 0) == ZERO

    def test_short_sequences_pad_with_zero(self):
        assert nat_sum([ONE], 5) == ONE


@given(ordinals(), ordinals())
def test_recursive_operations_bounded_by_natural(a, b):
    assert compare(rec_add(a, b), nat_add(a, b)) <= 0
    assert compare(rec_mul(a, b), nat_mul(a, b)) <= 0


class TestClosurePredicates:
    def test_additive_absorber_examples(self):
        assert is_closure_number(ClosureKind.GAMMA_ADD, o("w^2"))
        assert is_closure_number(ClosureKind.GAMMA_ADD, OMEGA)
        assert not is_closure_number(ClosureKind.GAMMA_ADD, o("w*2"))
        assert not is_closure_number(ClosureKind.GAMMA_ADD, o("w + 1"))

    def test_multiplicative_absorber_examples(self):
        assert is_closure_number(ClosureKind.DELTA_MUL, o("w^w"))
        assert is_closure_number(ClosureKind.DELTA_MUL, OMEGA)
        assert not is_closure_number(ClosureKind.DELTA_MUL, o("w^2"))

    def test_natural_multiplication_closure_examples(self):
        # witness against w^2: w * w is not below w^2
        assert not is_closure_number(ClosureKind.NAT_MUL, o("w^2"))
        assert is_closure_number(ClosureKind.NAT_MUL, o("w^w"))
        assert is_closure_number(ClosureKind.NAT_MUL, o("w^(w^2)"))

    def test_small_case_table(self):
        for kind in ClosureKind:
            assert is_closure_number(kind, ZERO)
        assert is_closure_number(ClosureKind.GAMMA_ADD, ONE)
        assert not is_closure_number(ClosureKind.GAMMA_ADD, Ordinal(2))
        assert is_closure_number(ClosureKind.DELTA_MUL, Ordinal(2))
        assert is_closure_number(ClosureKind.EPSILON_EXP, Ordinal(2))
        assert not is_closure_number(ClosureKind.NAT_ADD, Ordinal(2))
        assert not is_closure_number(ClosureKind.EPSILON_EXP, Ordinal(3))

    @given(ordinals())
    def test_additive_absorption_subsumes_natural_closure(self, a):
        if is_closure_number(ClosureKind.GAMMA_ADD, a):
            assert is_closure_number(ClosureKind.NAT_ADD, a)
        if is_closure_number(ClosureKind.DELTA_MUL, a):
            assert is_closure_number(ClosureKind.NAT_MUL, a)

    @given(ordinals())
    def test_structural_decision_never_refuted(self, a):
        rng = random.Random(17)
        for kind in ClosureKind:
            if is_closure_number(kind, a):
                assert closure_counterexample(kind, a, rng, tries=12) is None

    def test_refuter_finds_witnesses_on_known_failures(self):
        rng = random.Random(5)
        for kind, value in [
            (ClosureKind.NAT_ADD, o("w*2")),
            (ClosureKind.NAT_ADD, o("w^2 + 1")),
            (ClosureKind.NAT_MUL, o("w^2")),
            (ClosureKind.GAMMA_ADD, o("w + 1")),
            (ClosureKind.DELTA_MUL, o("w^3")),
            (ClosureKind.EPSILON_EXP, o("w*2")),
        ]:
            assert not is_closure_number(kind, value)
            assert closure_counterexample(kind, value, rng, tries=400) is not None


class TestSharedTermKernel:
    @given(ordinals(), ordinals())
    def test_natural_ops_are_the_surinteger_ring_ops(self, a, b):
        # an ordinal is a surinteger with positive coefficients, and the
        # natural sum and product are its ring operations
        sa, sb = SurInteger.from_ordinal(a), SurInteger.from_ordinal(b)
        assert tuple(nat_add(a, b)) == si_add(sa, sb).terms
        assert tuple(nat_mul(a, b)) == si_mul(sa, sb).terms


def _convolve_by_nat_add(ta, tb) -> tuple:
    # the kernel's pair loop with every exponent sum taken by nat_add
    bucket = {}
    for ea, ca in ta:
        for eb, cb in tb:
            e = nat_add(ea, eb)
            bucket[e] = bucket.get(e, 0) + ca * cb
    exps = sorted((e for e, c in bucket.items() if c), reverse=True)
    return tuple((e, bucket[e]) for e in exps)


# zero, finite sums below and past the table's size, finite values too
# large for the table, and transfinite exponents
_KERNEL_EXPONENTS = st.one_of(
    st.just(ZERO),
    st.integers(1, 4).map(Ordinal),
    st.integers(1, 3 * _FINITE_TABLE_SIZE).map(Ordinal),
    st.integers(10**30, 10**30 + 2).map(Ordinal),
    ordinals(depth=2).filter(lambda e: not e.is_finite),
)
_KERNEL_TERMS = st.lists(
    st.tuples(_KERNEL_EXPONENTS, st.integers(-2, 2).filter(bool)), max_size=5
).map(lambda pairs: _merge_surinteger(pairs).terms)


class TestConvolutionKernel:
    @given(_KERNEL_TERMS, _KERNEL_TERMS)
    @example(((ONE, 1), (ZERO, 1)), ((ONE, 1), (ZERO, -1)))  # (w+1)(w-1) = w^2 - 1
    @example(((Ordinal(700), 1),), ((Ordinal(700), 1), (ZERO, 1)))
    def test_same_product_as_nat_add_on_every_pair(self, ta, tb):
        got = _convolve_terms(ta, tb)
        assert got == _convolve_by_nat_add(ta, tb)
        assert all(type(e) is Ordinal for e, _ in got)
        validate_si(SurInteger.from_terms(got))

    def test_finite_table_stays_within_its_size(self):
        # 5,000 distinct finite sums w * w^k = w^(k+1), then sums past 2^64
        peak = 0
        for k in range(1, 5001):
            wk = _make(((Ordinal(k), 1),))
            assert nat_mul(OMEGA, wk) == _make(((Ordinal(k + 1), 1),))
            peak = max(peak, len(_FINITE_TABLE))
        assert peak == _FINITE_TABLE_SIZE
        big = _finite(2**64)
        assert big == Ordinal(2**64) and 2**64 not in _FINITE_TABLE
        assert nat_mul(_make(((big, 1),)), OMEGA) == _make(((Ordinal(2**64 + 1), 1),))
        assert len(_FINITE_TABLE) <= _FINITE_TABLE_SIZE


class TestNextClosure:
    def test_additive_jump(self):
        assert next_closure(ClosureKind.GAMMA_ADD, OMEGA) == o("w^2")
        assert next_closure(ClosureKind.GAMMA_ADD, o("w^2")) == o("w^3")

    def test_multiplicative_jump(self):
        assert next_closure(ClosureKind.DELTA_MUL, o("w^w")) == o("w^(w^2)")
        assert next_closure(ClosureKind.NAT_MUL, o("w^w")) == o("w^(w^2)")
        assert next_closure(ClosureKind.NAT_MUL, OMEGA) == o("w^w")

    def test_small_cases(self):
        assert next_closure(ClosureKind.GAMMA_ADD, ZERO) == ONE
        assert next_closure(ClosureKind.GAMMA_ADD, ONE) == OMEGA
        assert next_closure(ClosureKind.DELTA_MUL, ONE) == Ordinal(2)
        assert next_closure(ClosureKind.DELTA_MUL, Ordinal(2)) == OMEGA
        assert next_closure(ClosureKind.EPSILON_EXP, Ordinal(2)) == OMEGA

    def test_exponential_jump_leaves_the_notation(self):
        with pytest.raises(NotRepresentable):
            next_closure(ClosureKind.EPSILON_EXP, OMEGA)

    def test_requires_a_closure_point(self):
        with pytest.raises(Undefined):
            next_closure(ClosureKind.GAMMA_ADD, o("w*2"))

    @given(ordinals())
    def test_jump_is_a_closure_point_above(self, a):
        for kind in (ClosureKind.GAMMA_ADD, ClosureKind.NAT_ADD, ClosureKind.NAT_MUL):
            if is_closure_number(kind, a):
                nxt = next_closure(kind, a)
                assert compare(a, nxt) == LT
                assert is_closure_number(kind, nxt)
