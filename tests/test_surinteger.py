"""The discretely ordered ring of signed normal forms."""

import pytest
import hypothesis.strategies as st
from hypothesis import given

from transfinita import (
    EQ,
    GT,
    LT,
    NOT_CYCLIC,
    OMEGA,
    ZERO,
    CoordinateForm,
    InvalidLambda,
    Ordinal,
    SurInteger,
    cyclic_decompose,
    from_coordinates,
    in_lambda_ring,
    neg,
    si_add,
    si_compare,
    si_mul,
    si_sub,
    to_coordinates,
)
from transfinita.surinteger import S_ONE, S_ZERO, _make, si_abs, validate

from conftest import o, ordinals, si, surintegers


def is_positive(a: SurInteger) -> bool:
    """Sign predicate with zero counted positive (the pair view puts (0,0)
    on the non-negative side)."""
    return si_compare(a, S_ZERO) >= 0


class TestCoordinates:
    def test_five_term_split(self):
        a = si("w^5*4 - w^4*2 - w^2*7 + w*3 - 1")
        c = to_coordinates(a)
        assert c.negative == o("w^4*2 + w^2*7 + 1")
        assert c.positive == o("w^5*4 + w*3")
        assert from_coordinates(c) == a

    def test_zero(self):
        c = to_coordinates(S_ZERO)
        assert c.negative.is_zero and c.positive.is_zero

    def test_pure_negative(self):
        c = to_coordinates(SurInteger(-5))
        assert int(c.negative) == 5 and c.positive.is_zero

    def test_balancing_merge(self):
        assert from_coordinates(CoordinateForm(Ordinal(3), Ordinal(5))) == SurInteger(2)
        assert from_coordinates(CoordinateForm(OMEGA, o("w*3"))) == si("w*2")
        assert from_coordinates(CoordinateForm(Ordinal(0), o("w^2"))) == si("w^2")

    @given(surintegers())
    def test_round_trip_with_disjoint_support(self, a):
        c = to_coordinates(a)
        assert from_coordinates(c) == a
        neg_exps = {e for e, _ in c.negative.terms}
        pos_exps = {e for e, _ in c.positive.terms}
        assert not (neg_exps & pos_exps)

    @given(surintegers(depth=3, max_terms=6, max_coeff=50))
    def test_round_trip_wide(self, a):
        assert from_coordinates(to_coordinates(a)) == a

    @given(ordinals(), ordinals())
    def test_overlapping_pair_balances(self, n, p):
        # shared exponents of the two parts cancel coefficientwise
        expected = si_sub(SurInteger.from_ordinal(p), SurInteger.from_ordinal(n))
        assert from_coordinates(CoordinateForm(n, p)) == expected


class TestAddNeg:
    def test_coefficientwise(self):
        assert si_add(si("w*3 - 2"), si("-w + 5")) == si("w*2 + 3")

    @given(surintegers())
    def test_additive_inverse(self, a):
        assert si_add(a, neg(a)) == S_ZERO

    @given(surintegers())
    def test_zero_identity(self, a):
        assert si_add(a, S_ZERO) == a

    def test_neg_examples(self):
        assert neg(si("w - 1")) == si("-w + 1")
        assert neg(S_ZERO) == S_ZERO

    @given(surintegers())
    def test_neg_involution(self, a):
        assert neg(neg(a)) == a

    @given(surintegers(), surintegers())
    def test_results_are_normal(self, a, b):
        validate(si_add(a, b))
        validate(si_mul(a, b))


class TestMul:
    def test_cross_terms_cancel(self):
        assert si_mul(si("w - 1"), si("w + 1")) == si("w^2 - 1")

    @given(surintegers())
    def test_one_identity(self, a):
        assert si_mul(a, S_ONE) == a

    def test_integer_sign_rule(self):
        assert si_mul(SurInteger(-2), SurInteger(-3)) == SurInteger(6)


class TestOrder:
    def test_leading_term_dominates(self):
        assert si_compare(si("w - 5"), SurInteger(100)) == GT
        assert si_compare(si("-w"), SurInteger(-5)) == LT

    @given(surintegers())
    def test_reflexive(self, a):
        assert si_compare(a, a) == EQ

    @given(surintegers(), surintegers())
    def test_trichotomy(self, a, b):
        c = si_compare(a, b)
        assert c in (LT, EQ, GT)
        assert si_compare(b, a) == -c
        assert (c == EQ) == (a == b)

    @given(surintegers(), surintegers(), surintegers())
    def test_transitive(self, a, b, c):
        if si_compare(a, b) <= 0 and si_compare(b, c) <= 0:
            assert si_compare(a, c) <= 0

    def test_zero_counts_positive(self):
        assert is_positive(S_ZERO)

    @pytest.mark.parametrize(
        "a,b,want",
        [
            # one side is a prefix of the other, the rest either sign
            ("w^2 + w", "w^2", GT),
            ("w^2 - w", "w^2", LT),
            # an exponent missing on one side, its coefficient either sign
            ("w^2*3 + w*2 + 1", "w^2*3 + 5", GT),
            ("w^2*3 - w*2 + 1", "w^2*3 + 5", LT),
            ("w^w - w^5", "w^w - 3", LT),
            ("w^w*2 + w^(w + 1)", "w^w*2 + w^5*9", GT),
            # the same exponent with other coefficients, and equal values
            ("w*2 - 7", "w*3 - 7", LT),
            ("w^w - w + 1", "w^w - w + 1", EQ),
            ("0", "0", EQ),
        ],
    )
    def test_each_way_two_term_lists_differ(self, a, b, want):
        assert si_compare(si(a), si(b)) == want
        assert si_compare(si(b), si(a)) == -want

    @given(*[st.dictionaries(st.integers(0, 8), st.integers(-30, 30))] * 3)
    def test_sign_of_the_difference_at_a_large_integer(self, top, da, db):
        # a and b share the terms of top above both their own, so long
        # common prefixes are common; at x >= 2*|c| + 2 for every
        # coefficient c of a - b, the leading term outweighs the rest
        top = {k + 9: c for k, c in top.items()}
        ca, cb = {**top, **da}, {**top, **db}
        diff = {k: ca.get(k, 0) - cb.get(k, 0) for k in ca.keys() | cb.keys()}
        x = 2 * max(map(abs, diff.values()), default=0) + 2
        v = sum(c * x**k for k, c in diff.items())
        a, b = (_make(tuple((Ordinal(k), d[k]) for k in sorted(d, reverse=True) if d[k])) for d in (ca, cb))
        assert si_compare(a, b) == (v > 0) - (v < 0)


class TestRingLaws:
    @given(surintegers(), surintegers(), surintegers())
    def test_additive_group(self, a, b, c):
        assert si_add(si_add(a, b), c) == si_add(a, si_add(b, c))
        assert si_add(a, b) == si_add(b, a)

    @given(surintegers(), surintegers(), surintegers())
    def test_multiplicative_monoid(self, a, b, c):
        assert si_mul(si_mul(a, b), c) == si_mul(a, si_mul(b, c))
        assert si_mul(a, b) == si_mul(b, a)

    @given(surintegers(), surintegers(), surintegers())
    def test_distributive(self, a, b, c):
        assert si_mul(a, si_add(b, c)) == si_add(si_mul(a, b), si_mul(a, c))

    @given(surintegers(), surintegers(), surintegers())
    def test_order_respects_addition(self, a, c, bump):
        b = si_add(a, si_add(si_abs(bump), S_ONE))
        d = si_add(c, S_ONE)
        assert si_compare(a, b) == LT and si_compare(c, d) == LT
        assert si_compare(si_add(a, c), si_add(b, d)) == LT

    @given(surintegers(), surintegers())
    def test_positive_products(self, a, b):
        pa = si_add(si_abs(a), S_ONE)
        pb = si_add(si_abs(b), S_ONE)
        assert si_compare(S_ZERO, si_mul(pa, pb)) == LT


class TestDiscreteness:
    @given(surintegers(), surintegers())
    def test_no_element_between_a_and_its_successor(self, a, b):
        up = si_add(a, S_ONE)
        assert not (si_compare(a, b) == LT and si_compare(b, up) == LT)


class TestSignClosure:
    @given(surintegers(), surintegers())
    def test_strict_sign_classes_closed_under_addition(self, a, b):
        if si_compare(a, S_ZERO) == GT and si_compare(b, S_ZERO) == GT:
            assert si_compare(si_add(a, b), S_ZERO) == GT
        if si_compare(a, S_ZERO) == LT and si_compare(b, S_ZERO) == LT:
            assert si_compare(si_add(a, b), S_ZERO) == LT


class TestLambdaRings:
    def test_membership_examples(self):
        assert in_lambda_ring(si("w*3 - 2"), o("w^w"))
        assert not in_lambda_ring(SurInteger.from_ordinal(OMEGA), OMEGA)
        assert in_lambda_ring(SurInteger(-7), OMEGA)
        assert not in_lambda_ring(si("w^w - 1"), o("w^w"))

    @given(surintegers(depth=3))
    def test_membership_is_both_coordinates_below(self, a):
        c = to_coordinates(a)
        for lam in (OMEGA, o("w^w"), o("w^(w^2)"), o("w^(w^w)")):
            assert in_lambda_ring(a, lam) == (c.negative < lam and c.positive < lam)

    def test_invalid_truncation_points(self):
        with pytest.raises(InvalidLambda):
            in_lambda_ring(S_ONE, Ordinal(7))
        with pytest.raises(InvalidLambda):
            in_lambda_ring(S_ONE, o("w^2"))

    @given(surintegers(), surintegers())
    def test_closure_under_ring_operations(self, a, b):
        for lam in (OMEGA, o("w^w"), o("w^(w^2)")):
            if in_lambda_ring(a, lam) and in_lambda_ring(b, lam):
                assert in_lambda_ring(si_add(a, b), lam)
                assert in_lambda_ring(si_mul(a, b), lam)


class TestCyclicity:
    def test_examples(self):
        assert cyclic_decompose(SurInteger(-3)) == ("-", 3)
        assert cyclic_decompose(S_ZERO) == ("+", 0)
        assert cyclic_decompose(SurInteger.from_ordinal(OMEGA)) is NOT_CYCLIC

    @given(surintegers())
    def test_finite_exactly(self, a):
        out = cyclic_decompose(a)
        if a.is_finite:
            sign, count = out
            assert (SurInteger(count) if sign == "+" else SurInteger(-count)) == a
        else:
            assert out is NOT_CYCLIC


class TestValidate:
    @pytest.mark.parametrize("terms", [[5], [(ZERO, 1, 2)], [None], [(ZERO,)]])
    def test_malformed_terms(self, terms):
        with pytest.raises(ValueError, match="bad term"):
            SurInteger.from_terms(terms)
