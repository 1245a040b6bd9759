"""The ordered field of surinteger fractions."""

import time
from math import gcd

import pytest
import hypothesis.strategies as st
from hypothesis import example, given

from transfinita import (
    EQ,
    GT,
    LT,
    NO_WITNESS,
    NOT_DIVISIBLE,
    OMEGA,
    DivisionByZero,
    EvalError,
    InvalidLambda,
    SurInteger,
    Ordinal,
    SurRational,
    Undefined,
    archimedean_witness,
    evaluate,
    exact_divide,
    in_lambda_field,
    midpoint,
    q_add,
    q_compare,
    q_eq,
    q_inv,
    q_mul,
    q_neg,
    parse,
    si_add,
    si_mul,
)
from transfinita.ordinal import _make as _make_ordinal
from transfinita.surinteger import S_ONE, S_ZERO, _make as _make_si, content, si_sub
from transfinita.surrational import Q_ONE, Q_ZERO, _light_reduce, q_sub

from conftest import (
    FINITE_EXPONENTS,
    _ref_exp_diff,
    o,
    ordinals,
    polynomials,
    q,
    si,
    surintegers,
    surrationals,
)


# Reference: the dict-based monomial helpers (content, strip, min; diff is
# conftest's _ref_exp_diff) and the two routines built on them, as they stood
# before the monomial ops were merged.  Exponents read as monomials:
# w^(w^z*k + ...) is x_z^k * ...


def _ref_monomial_content(a):
    dom = None
    for e, _ in a.terms:
        if dom is None:
            dom = dict(e)
        else:
            dom = {x: min(k, dom[x]) for x, k in e if x in dom}
        if not dom:
            return None
    exps = sorted(dom, reverse=True)
    return _make_ordinal(tuple((x, dom[x]) for x in exps))


def _ref_strip_monomial(a, m):
    out = []
    for e, c in a.terms:
        left = dict(e)
        for x, k in m:
            left[x] -= k
            if not left[x]:
                del left[x]
        exps = sorted(left, reverse=True)
        out.append((_make_ordinal(tuple((x, left[x]) for x in exps)), c))
    return _make_si(tuple(out))


def _ref_min_exponent(x, y):
    dx = dict(x)
    out = {e: min(k, dx[e]) for e, k in y if e in dx}
    exps = sorted(out, reverse=True)
    return _make_ordinal(tuple((e, out[e]) for e in exps))


def _ref_light_reduce(num, den):
    if num.is_zero:
        return SurRational(S_ZERO, S_ONE)
    g = gcd(content(num), content(den))
    if g > 1:
        num = _make_si(tuple((e, c // g) for e, c in num.terms))
        den = _make_si(tuple((e, c // g) for e, c in den.terms))
    m = _ref_monomial_content(num)
    md = _ref_monomial_content(den)
    if m is not None and md is not None:
        shared = _ref_min_exponent(m, md)
        if shared:
            num = _ref_strip_monomial(num, shared)
            den = _ref_strip_monomial(den, shared)
    return SurRational(num, den)


def _ref_exact_divide(a, b):
    if a.is_zero:
        return S_ZERO
    eb, cb = b.terms[0]
    quot = []
    r = a
    while r.terms:
        er, cr = r.terms[0]
        eq = _ref_exp_diff(er, eb)
        if eq is None or cr % cb:
            return NOT_DIVISIBLE
        cq = cr // cb
        quot.append((eq, cq))
        r = si_sub(r, si_mul(b, _make_si(((eq, cq),))))
    quo = _make_si(tuple(quot))
    return quo if si_mul(b, quo) == a else NOT_DIVISIBLE


def _wide():
    return surintegers(depth=3, max_terms=6, max_coeff=40)


def _monomials():
    # w^m for a random exponent m (m = 0 gives 1, no shared monomial)
    return ordinals(depth=2, max_terms=3, max_coeff=4).map(lambda m: _make_si(((m, 1),)))


def _transfinite_exponents():
    return ordinals(depth=2, max_terms=3, max_coeff=4).filter(lambda e: not e.is_finite)


def _same(got, ref):
    return (got.num, got.den) == (ref.num, ref.den)


class TestEquality:
    def test_cross_multiplied(self):
        assert q_eq(q("2/4"), q("1/2"))
        assert q_eq(q("w/2"), q("w/2"))
        assert not q_eq(q("1/w"), Q_ZERO)

    @given(surrationals())
    def test_reflexive(self, p):
        assert q_eq(p, p)

    @given(surrationals(), surrationals())
    def test_symmetric(self, p, r):
        assert q_eq(p, r) == q_eq(r, p)

    @given(surrationals(), surrationals(), surrationals())
    def test_transitive(self, p, r, s):
        if q_eq(p, r) and q_eq(r, s):
            assert q_eq(p, s)

    def test_denominators_are_normalised_positive(self):
        p = SurRational(SurInteger(1), SurInteger(-2))
        assert q_eq(p, q("-1/2"))
        with pytest.raises(DivisionByZero):
            SurRational(SurInteger(1), SurInteger(0))


class TestOrder:
    def test_infinitesimal_ladder(self):
        n, m = SurRational(5), 3
        w_over_m = q("w/3")
        assert q_compare(n, w_over_m) == LT
        assert q_compare(w_over_m, q("w - 5")) == LT
        assert q_compare(q("1/w"), q("1/w^2")) == GT

    @given(surrationals(), surrationals())
    def test_total(self, p, r):
        c = q_compare(p, r)
        assert c in (LT, EQ, GT)
        assert q_compare(r, p) == -c
        assert (c == EQ) == q_eq(p, r)


class TestFieldOperations:
    def test_textbook_fraction_sum(self):
        assert q_eq(q_add(q("1/2"), q("1/3")), q("5/6"))
        assert q_eq(q_add(q("1/w"), q("1/w")), q("2/w"))

    @given(surrationals())
    def test_additive_identity_and_inverse(self, p):
        assert q_eq(q_add(p, Q_ZERO), p)
        assert q_eq(q_add(p, q_neg(p)), Q_ZERO)

    def test_negation_examples(self):
        assert q_eq(q_neg(q("1/2")), q("-1/2"))
        assert q_eq(q_neg(Q_ZERO), Q_ZERO)

    @given(surrationals())
    def test_neg_involution(self, p):
        assert q_eq(q_neg(q_neg(p)), p)

    def test_products(self):
        assert q_eq(q_mul(q("2/3"), q("3/2")), Q_ONE)
        assert q_eq(q_mul(q("w/2"), q("2/w")), Q_ONE)

    @given(surrationals())
    def test_multiplicative_identity(self, p):
        assert q_eq(q_mul(p, Q_ONE), p)

    def test_inversion_swaps_and_fixes_signs(self):
        assert q_eq(q_inv(q("2/3")), q("3/2"))
        assert q_eq(q_inv(q("-2/3")), q("-3/2"))
        assert q_eq(q_inv(Q_ZERO), Q_ZERO)

    @given(surrationals())
    def test_inverse_law(self, p):
        if not p.is_zero:
            assert q_eq(q_mul(p, q_inv(p)), Q_ONE)

    @given(surrationals(), surrationals(), surrationals())
    def test_field_laws(self, p, r, s):
        assert q_eq(q_add(q_add(p, r), s), q_add(p, q_add(r, s)))
        assert q_eq(q_add(p, r), q_add(r, p))
        assert q_eq(q_mul(q_mul(p, r), s), q_mul(p, q_mul(r, s)))
        assert q_eq(q_mul(p, r), q_mul(r, p))
        assert q_eq(q_mul(p, q_add(r, s)), q_add(q_mul(p, r), q_mul(p, s)))

    @given(surrationals(), surrationals(), surrationals())
    def test_order_compatibility(self, p, r, s):
        hi_p = q_add(p, Q_ONE)
        hi_r = q_add(r, q("1/2"))
        assert q_compare(q_add(p, r), q_add(hi_p, hi_r)) == LT
        pos_p = q_add(_abs(p), q("1/3"))
        pos_s = q_add(_abs(s), Q_ONE)
        assert q_compare(Q_ZERO, q_mul(pos_p, pos_s)) == LT


def _abs(p):
    from transfinita.surrational import q_abs

    return q_abs(p)


class TestReduce:
    """The reduction that products and quotients get: shared integer
    content and shared monomial divided out, nothing more."""

    def test_integer_content(self):
        r = _light_reduce(SurInteger(2), SurInteger(4))
        assert (r.num, r.den) == (SurInteger(1), SurInteger(2))

    def test_common_monomial_and_content(self):
        p = q("(w*2) / (w*4)")
        r = _light_reduce(si("w*2"), si("w*4"))
        assert (r.num, r.den) == (SurInteger(1), SurInteger(2))
        assert q_eq(r, p)

    def test_already_coprime(self):
        r = _light_reduce(SurInteger(1), si("w - 0"))
        assert (r.num, r.den) == (SurInteger(1), si("w - 0"))

    @given(surrationals())
    def test_value_preserved(self, p):
        assert q_eq(_light_reduce(p.num, p.den), p)


class TestMonomialOps:
    @given(_wide(), _wide(), _monomials(), _monomials(), _monomials())
    def test_light_reduce_matches_reference(self, num, den, m, mn, md):
        if den.is_zero:
            return
        # m is shared by both sides; mn and md may overlap it or each other
        num = si_mul(si_mul(num, m), mn)
        den = si_mul(si_mul(den, m), md)
        assert _same(_light_reduce(num, den), _ref_light_reduce(num, den))

    @given(_wide(), _wide(), st.integers(1, 6))
    def test_light_reduce_with_content_and_monomial(self, num, den, k):
        if den.is_zero:
            return
        shift = _make_si(((o(f"w^{k}*2 + w + {k}"), 6),))
        num, den = si_mul(num, shift), si_mul(den, shift)
        assert _same(_light_reduce(num, den), _ref_light_reduce(num, den))

    @given(
        polynomials(1, 12),
        polynomials(1, 12),
        FINITE_EXPONENTS,
        st.integers(1, 10**6),
        st.booleans(),
    )
    @example(si("w^3*2 - w"), si("w^2*4 + w"), 2**64 + 3, 1, False)
    @example(si("w^3*6 - w*9"), SurInteger(4), 1, 3, True)  # a constant side
    def test_light_reduce_on_polynomials(self, num, den, k, g, constant):
        # both sides share w^k (none for k = 0) and g; a constant side
        # shares only g
        shared = _make_si(((Ordinal(k), g),))
        num = si_mul(num, shared)
        den = SurInteger(g * den.terms[-1][1]) if constant else si_mul(den, shared)
        for x, y in ((num, den), (den, num)):
            assert _same(_light_reduce(x, y), _ref_light_reduce(x, y))

    @given(polynomials(1, 12), polynomials(1, 4), _transfinite_exponents(), FINITE_EXPONENTS)
    @example(si("w^2 - w"), si("w*3"), OMEGA, 1)
    def test_light_reduce_on_a_mixed_pair(self, poly, low, e, k):
        # one side leads with a transfinite exponent: the general path runs
        mixed = si_add(_make_si(((e, 3),)), low)
        shared = _make_si(((Ordinal(k), 2),))
        poly, mixed = si_mul(poly, shared), si_mul(mixed, shared)
        for x, y in ((poly, mixed), (mixed, poly)):
            assert _same(_light_reduce(x, y), _ref_light_reduce(x, y))

    @given(_wide(), _wide(), _wide(), _monomials())
    def test_exact_divide_matches_reference(self, a, b, c, m):
        if b.is_zero:
            return
        b = si_mul(b, m)
        for x in (a, si_mul(a, m), si_mul(b, c)):
            got, ref = exact_divide(x, b), _ref_exact_divide(x, b)
            if ref is NOT_DIVISIBLE:
                assert got is NOT_DIVISIBLE
            else:
                assert got.terms == ref.terms


class TestExactDivide:
    def test_polynomial_quotient(self):
        assert exact_divide(si("w^2 - 1"), si("w + 1")) == si("w - 1")

    def test_indivisible_coefficient(self):
        assert exact_divide(si("w - 0"), SurInteger(2)) is NOT_DIVISIBLE

    @given(surintegers())
    def test_one_divides_everything(self, a):
        assert exact_divide(a, SurInteger(1)) == a

    def test_a_quotient_below_the_last_terms_stops_at_once(self):
        # every quotient term lies at or above w^k, the quotient of the last
        # terms, so the division stops at its first term, w^(k-1), instead
        # of emitting k of them
        start = time.perf_counter()
        with pytest.raises(EvalError) as err:
            evaluate(parse("(w^1000000) / (w - 1) +. 1"))
        assert time.perf_counter() - start < 2
        assert isinstance(err.value.origin, Undefined)
        assert "is not an ordinal" in str(err.value)
        # and it agrees with the reference on the divisible neighbours
        for k in (1, 2, 50, 1000):
            for a in (si(f"w^{k}"), si(f"w^{k} - 1"), si(f"w^{k}*2 - w*2")):
                for b in (si("w - 1"), si("w*2 + 3"), si("w^2 - w"), si("w*2")):
                    got, ref = exact_divide(a, b), _ref_exact_divide(a, b)
                    assert got is ref if ref is NOT_DIVISIBLE else got.terms == ref.terms

    def test_zero_divisor_rejected(self):
        with pytest.raises(DivisionByZero):
            exact_divide(SurInteger(1), SurInteger(0))

    @given(surintegers(), surintegers())
    def test_round_trip(self, a, b):
        if b.is_zero:
            return
        c = exact_divide(a, b)
        if c is not NOT_DIVISIBLE:
            assert si_mul(b, c) == a

    @given(surintegers(), surintegers())
    def test_products_always_divide_back(self, a, b):
        if b.is_zero:
            return
        c = exact_divide(si_mul(a, b), b)
        assert c is not NOT_DIVISIBLE and c == a


class TestLambdaFields:
    def test_examples(self):
        assert in_lambda_field(q("1/w"), o("w^w"))
        assert not in_lambda_field(q("1/w"), OMEGA)
        assert in_lambda_field(q("3/4"), OMEGA)

    def test_invalid_lambda(self):
        with pytest.raises(InvalidLambda):
            in_lambda_field(q("3/4"), o("w*2"))


class TestArchimedean:
    def test_bounded_pair(self):
        assert archimedean_witness(q("2/3"), q("7/2"), 100) == 6

    def test_infinite_element_has_no_witness(self):
        assert archimedean_witness(Q_ONE, q("w/1"), 10**6) is NO_WITNESS

    def test_zero_needs_nothing(self):
        assert archimedean_witness(q("5/7"), Q_ZERO, 10) == 0

    def test_zero_reference_rejected(self):
        with pytest.raises(Undefined):
            archimedean_witness(Q_ZERO, Q_ONE, 10)

    @given(surrationals())
    def test_witness_is_least(self, p):
        base = q("3/2")
        n = archimedean_witness(base, p, 500)
        if n is NO_WITNESS or n == 0:
            return
        from transfinita.surrational import _le_scaled, q_abs

        assert _le_scaled(q_abs(p), q_abs(base), n)
        assert not _le_scaled(q_abs(p), q_abs(base), n - 1)


class TestDensity:
    def test_midpoint_examples(self):
        assert q_eq(midpoint(Q_ZERO, Q_ONE), q("1/2"))
        assert q_eq(midpoint(q("1/w"), q("2/w")), q("3/(w*2)"))

    def test_midpoint_inside_an_infinitesimal_gap(self):
        n = SurRational(4)
        hi = q_add(n, q("1/w"))
        mid = midpoint(n, hi)
        assert q_compare(n, mid) == LT and q_compare(mid, hi) == LT
        assert q_eq(q_sub(mid, n), q("1/(w*2)"))

    def test_requires_strict_order(self):
        with pytest.raises(Undefined):
            midpoint(Q_ONE, Q_ONE)

    @given(surrationals(), surrationals())
    def test_strictly_between(self, p, r):
        if q_compare(p, r) != LT:
            return
        m = midpoint(p, r)
        assert q_compare(p, m) == LT and q_compare(m, r) == LT

    @given(surrationals(depth=0))
    def test_no_finite_rational_enters_the_omega_gap(self, r):
        # q < q + r < q + 1/w is impossible for finite rational r > 0
        base = q("5/3")
        if q_compare(r, Q_ZERO) != GT:
            return
        inside = q_add(base, r)
        top = q_add(base, q("1/w"))
        assert not (q_compare(base, inside) == LT and q_compare(inside, top) == LT)
