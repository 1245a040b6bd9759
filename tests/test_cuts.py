"""Cut predicates over truncated fields and the Gaussian extension."""

import random
from math import gcd

import pytest
import hypothesis.strategies as st
from hypothesis import example, given

from transfinita import (
    CX_I,
    CX_ONE,
    CX_ZERO,
    GT,
    LT,
    OMEGA,
    DivisionByZero,
    GaussianSurRational,
    InvalidLambda,
    Ordinal,
    OutOfField,
    RationalCut,
    ResourceExceeded,
    RootCut,
    Undefined,
    classify_root_cut,
    cut_member,
    cx_add,
    cx_div,
    cx_eq,
    cx_inv,
    cx_mul,
    cx_neg,
    q_compare,
    q_eq,
    q_mul,
)
from transfinita.cuts import _int_nth_root, _q_pow, check_root
from transfinita.natural import _exp_root
from transfinita.surinteger import S_ONE, S_ZERO, SurInteger, _make as _make_si, si_add, si_mul
from transfinita.surrational import (
    Q_ZERO,
    SurRational,
    _light_reduce,
    exact_divide,
    midpoint,
)

from conftest import o, ordinals, q, seconds_in_child, si, surintegers, surrationals
from random_values import random_surrational

WW = None


def _monomials():
    # a positive monomial w^e*c whose coefficient is often a perfect power
    coeff = st.builds(pow, st.integers(1, 12), st.integers(1, 5))
    return st.builds(lambda e, c: _make_si(((e, c),)), ordinals(depth=2, max_coeff=10), coeff)


def rational_cut_bump(cut: RationalCut, p: SurRational) -> SurRational:
    """A member strictly above member ``p``: the midpoint towards the cut
    value, witnessing that the left set has no greatest element."""
    return midpoint(p, cut.q)


def setup_module():
    global WW
    WW = o("w^w")


class TestCutMembership:
    def test_square_root_of_two(self):
        cut = RootCut(SurRational(2), 2, OMEGA)
        assert cut_member(cut, q("7/5"))
        assert not cut_member(cut, q("3/2"))

    def test_every_finite_sits_below_root_omega(self):
        cut = RootCut(q("w/1"), 2, WW)
        assert cut_member(cut, SurRational(1000))
        assert not cut_member(cut, q("w/1"))

    def test_rational_cut_is_strict_order(self):
        cut = RationalCut(q("1/2"), OMEGA)
        assert cut_member(cut, q("49/100"))
        assert not cut_member(cut, q("1/2"))
        assert not cut_member(cut, q("51/100"))

    def test_powers_are_budgeted(self):
        # (3/2)^(10^8) needs a numerator of about 4.8e7 digits
        with pytest.raises(ResourceExceeded):
            cut_member(RootCut(SurRational(2), 10**8, OMEGA), q("3/2"))
        # 3^100000 has 47,713 digits
        assert not cut_member(RootCut(SurRational(2), 100_000, OMEGA), q("3/2"), 100_000)
        # the bound adds the coefficients: 2^400 is 121 digits, (w + 1)^400 has none larger
        with pytest.raises(ResourceExceeded):
            cut_member(RootCut(q("w/1"), 400, WW), q("w + 1"), 100)
        # coefficients of 1 stay 1 at any power
        assert not cut_member(RootCut(q("w/1"), 10**8, WW), q("w/1"), 10)

    def test_out_of_field(self):
        cut = RationalCut(q("1/2"), OMEGA)
        with pytest.raises(OutOfField):
            cut_member(cut, q("1/w"))

    def test_cut_constructors_validate(self):
        with pytest.raises(InvalidLambda):
            RationalCut(q("1/2"), o("w*2"))
        with pytest.raises(Undefined):
            RootCut(SurRational(2), 1, OMEGA)
        with pytest.raises(Undefined):
            RootCut(q("-2/1"), 2, OMEGA)

    @given(st.integers(0, 2**32))
    @example(None)  # the radicand 0
    def test_radicand_sign_agrees_with_compare(self, seed):
        # check_root reads the sign from the numerator's leading coefficient
        p = Q_ZERO if seed is None else random_surrational(random.Random(seed), depth=2)
        try:
            check_root(p, 2)
            accepted = True
        except Undefined:
            accepted = False
        assert accepted == (q_compare(p, Q_ZERO) == GT)

    @given(surrationals())
    def test_root_membership_matches_power_comparison(self, p):
        # on positive elements the defining inequality is p^n < q
        cut = RootCut(q("w^2/3"), 3, WW)
        if q_compare(p, Q_ZERO) != GT:
            return
        assert cut_member(cut, p) == (q_compare(_q_pow(p, 3), cut.q) == LT)

    @given(surrationals(depth=0), surrationals(depth=0))
    def test_left_set_below_right_set(self, l, r):
        cut = RationalCut(q("2/3"), OMEGA)
        if cut_member(cut, l) and not cut_member(cut, r):
            assert q_compare(l, r) == LT

    @given(surrationals(depth=0))
    def test_no_greatest_member(self, p):
        cut = RationalCut(q("2/3"), OMEGA)
        if not cut_member(cut, p):
            return
        above = rational_cut_bump(cut, p)
        assert cut_member(cut, above)
        assert q_compare(p, above) == LT


class TestRootClassification:
    def test_perfect_square(self):
        out = classify_root_cut(RootCut(SurRational(4), 2, WW))
        assert out.kind == "surrational" and q_eq(out.witness, SurRational(2))

    def test_two_is_irrational(self):
        assert classify_root_cut(RootCut(SurRational(2), 2, WW)).kind == "irrational"

    def test_monomial_exponent_halving(self):
        out = classify_root_cut(RootCut(q("w^2/1"), 2, WW))
        assert out.kind == "surrational" and q_eq(out.witness, q("w/1"))

    def test_monomial_with_odd_exponent(self):
        assert classify_root_cut(RootCut(q("w/1"), 2, WW)).kind == "irrational"

    def test_fraction_radicand(self):
        out = classify_root_cut(RootCut(q("9/4"), 2, WW))
        assert out.kind == "surrational" and q_eq(out.witness, q("3/2"))

    def test_cube_roots(self):
        out = classify_root_cut(RootCut(q("w^3*8 / 1"), 3, WW))
        assert out.kind == "surrational" and q_eq(out.witness, q("w*2/1"))

    def test_multi_term_radicand_is_inconclusive(self):
        assert classify_root_cut(RootCut(q("(w + 1)/1"), 2, WW)).kind == "inconclusive"

    def test_trial_search_catches_reducible_shapes(self):
        out = classify_root_cut(RootCut(q("(w^2*4) / (w^2)"), 2, WW))
        assert out.kind == "surrational" and q_eq(out.witness, SurRational(2))

    def test_a_ratio_of_monomials_behind_a_common_factor(self):
        # reduction leaves (w^3*4 + w^2*4) / (w*9 + 9), which no side divides
        rad = q("(w + 1)*w^2*4 / ((w + 1)*9)")
        assert len(rad.num.terms) == 2
        out = classify_root_cut(RootCut(rad, 2, WW))
        assert out.kind == "surrational" and (out.witness.num, out.witness.den) == (si("w*2"), si("3"))

    def test_a_long_quotient_is_not_divided_out(self):
        # (w^1000000 - 1) / (w - 1) is a polynomial of 10^6 terms; the
        # monomial-ratio test never forms it
        code = (
            "out = evaluate(parse('classify(sqrt[2]((w^1000000 - 1) / (w - 1)))'))\n"
            "assert out.kind == 'inconclusive', out"
        )
        assert seconds_in_child(code) < 1

    @given(
        _monomials(),
        _monomials(),
        surintegers(max_terms=4).filter(lambda p: len(p.terms) > 1),
        st.integers(2, 5),
    )
    @example(_make_si(((Ordinal(4), 9),)), _make_si(((Ordinal(2), 4),)), si("w + 1"), 2)
    def test_a_common_factor_leaves_the_verdict_of_the_monomials(self, m1, m2, p, n):
        got = classify_root_cut(RootCut(SurRational(si_mul(m1, p), si_mul(m2, p)), n, WW))
        want = classify_root_cut(RootCut(SurRational(m1, m2), n, WW))
        assert got.kind == want.kind != "inconclusive"
        if want.witness is not None:
            assert (got.witness.num, got.witness.den) == (want.witness.num, want.witness.den)

    @given(surrationals())
    def test_witness_soundness_on_squares(self, p):
        if q_compare(p, Q_ZERO) != GT:
            return
        sq = q_mul(p, p)
        out = classify_root_cut(RootCut(sq, 2, WW))
        if out.kind == "surrational":
            assert q_eq(q_mul(out.witness, out.witness), sq)


def _ref_reduce(p):
    """The reduction the root analysis once ran on: shared content and
    monomial, then one side exactly dividing the other."""
    base = _light_reduce(p.num, p.den)
    num, den = base.num, base.den
    if num.is_zero:
        return SurRational(S_ZERO, S_ONE)
    c = exact_divide(num, den)
    if isinstance(c, SurInteger):
        return SurRational(c, S_ONE)
    c = exact_divide(den, num)
    if isinstance(c, SurInteger):
        return SurRational(S_ONE, c)
    return SurRational(num, den)


def _ref_si_nth_root(a, n):
    """(root, decided) for one side of the reduced radicand: the exact n-th
    root of an integer or a single monomial, decided negatively when the
    leading term rules a root out, undecided for more than one term."""
    if a.is_zero:
        return SurInteger(0), True
    if len(a.terms) != 1:
        return None, False
    e, c = a.terms[0]
    if c < 0 and n % 2 == 0:
        return None, True
    root_c, root_e = _int_nth_root(abs(c), n), _exp_root(e, n)
    if root_c**n != abs(c) or root_e is None:
        return None, True
    return _make_si(((root_e, root_c if c > 0 else -root_c),)), True


def _trial_classify(cut, search_bound=24):
    """Reference: the structural analysis, then every i/j with i, j up to the
    bound in i-major order, the search the exact test replaced."""
    qr = _ref_reduce(cut.q)
    rn, dec_n = _ref_si_nth_root(qr.num, cut.n)
    rd, dec_d = _ref_si_nth_root(qr.den, cut.n)
    if dec_n and dec_d:
        if rn is not None and rd is not None:
            return "surrational", SurRational(rn, rd)
        return "irrational", None
    for i in range(1, search_bound + 1):
        for j in range(1, search_bound + 1):
            cand = SurRational(SurInteger(i), SurInteger(j))
            if q_eq(_q_pow(cand, cut.n), qr):
                return "surrational", cand
    return "inconclusive", None


class TestExactRootTest:
    POLYS = ("w^2*3 - w*2 + 5", "w + 1", "w^(w)*2 + w^3 - 7", "w^2 - w*4 + 4")

    def _cases(self):
        """(radicand, n, ratio): ratio is (a, b) when the radicand is
        a*p / (b*p) for a multi-term p, else None."""
        for n in (2, 3, 5):
            for k, text in enumerate(self.POLYS):
                p = si(text)
                # proportional: roots on either side of the old bound of 24,
                # a ratio that is not a perfect power, and 400+ digit ratios
                # past that bound, whether a power or not
                roots = ((2, 3), (1, 24), (24, 7), (25, 1), (3, 25), (6, 4))
                ratios = [(i**n, j**n) for i, j in roots]
                ratios += [(2 * 3**n, 5**n), (10**400 + 1, 3), (7**(480 * n), 1)]
                for a, b in ratios:
                    yield SurRational(si_mul(p, SurInteger(a)), si_mul(p, SurInteger(b))), n, (a, b)
                # not proportional: other exponents or other coefficients
                other = si(self.POLYS[(k + 1) % len(self.POLYS)])
                yield SurRational(si_mul(p, SurInteger(4**n)), other), n, None
                yield SurRational(si_mul(p, SurInteger(4)), si_add(p, SurInteger(1))), n, None

    def test_matches_trial_search(self):
        # where the trial search decides, the verdict and witness stay; where
        # it gave up on a proportional radicand, the verdict is now exact
        seen = set()
        for rad, n, ratio in self._cases():
            cut = RootCut(rad, n, WW)
            got = classify_root_cut(cut)
            kind, witness = _trial_classify(cut)
            if kind == "inconclusive" and ratio is not None:
                g = gcd(*ratio)
                a, b = ratio[0] // g, ratio[1] // g
                ra, rb = _int_nth_root(a, n), _int_nth_root(b, n)
                if ra**n == a and rb**n == b:
                    kind, witness = "surrational", SurRational(SurInteger(ra), SurInteger(rb))
                else:
                    kind = "irrational"
            assert got.kind == kind
            if witness is not None:
                assert (got.witness.num, got.witness.den) == (witness.num, witness.den)
            seen.add(kind)
        assert seen == {"surrational", "irrational", "inconclusive"}

    def test_integer_roots_past_float_range(self):
        for n in (2, 3, 5, 7):
            for v in (10**400, 10**400 + 1, 3**900 - 1, 2**2000, 10**309):
                r = _int_nth_root(v, n)
                assert r**n <= v < (r + 1) ** n
        # degrees around the bit length, where the root becomes 1, and far past it
        for v in range(2, 70):
            for n in {*range(2, 9), v.bit_length() - 1, v.bit_length()} - {1}:
                r = _int_nth_root(v, n)
                assert r**n <= v < (r + 1) ** n
        assert _int_nth_root(10**400, 10**18) == 1
        out = classify_root_cut(RootCut(q("10^400"), 2, WW))
        assert out.kind == "surrational" and q_eq(out.witness, q("10^200"))
        assert classify_root_cut(RootCut(q("10^401"), 2, WW)).kind == "irrational"


class TestGaussian:
    def test_i_squared(self):
        assert cx_eq(cx_mul(CX_I, CX_I), cx_neg(CX_ONE))

    def test_componentwise_addition(self):
        a = GaussianSurRational(SurRational(1), SurRational(2))
        b = GaussianSurRational(SurRational(3), SurRational(4))
        s = cx_add(a, b)
        assert q_eq(s.re, SurRational(4)) and q_eq(s.im, SurRational(6))
        assert cx_eq(cx_add(a, CX_ZERO), a)

    def test_infinitesimal_components(self):
        a = GaussianSurRational(q("1/w"), Q_ZERO)
        b = GaussianSurRational(Q_ZERO, q("1/w"))
        s = cx_add(a, b)
        assert q_eq(s.re, q("1/w")) and q_eq(s.im, q("1/w"))

    def test_imaginary_square_of_omega(self):
        a = GaussianSurRational(Q_ZERO, q("w/1"))
        s = cx_mul(a, a)
        assert q_eq(s.re, q("-w^2/1")) and q_eq(s.im, Q_ZERO)

    def test_inverse_examples(self):
        assert cx_eq(cx_inv(CX_I), cx_neg(CX_I))
        inv = cx_inv(GaussianSurRational(SurRational(1), SurRational(1)))
        assert q_eq(inv.re, q("1/2")) and q_eq(inv.im, q("-1/2"))
        inv_w = cx_inv(GaussianSurRational(q("w/1"), Q_ZERO))
        assert q_eq(inv_w.re, q("1/w")) and q_eq(inv_w.im, Q_ZERO)

    def test_zero_has_no_inverse(self):
        with pytest.raises(DivisionByZero):
            cx_inv(CX_ZERO)
        with pytest.raises(DivisionByZero):
            cx_div(CX_ONE, CX_ZERO)

    @given(surrationals(), surrationals())
    def test_inverse_law(self, re, im):
        a = GaussianSurRational(re, im)
        if q_eq(re, Q_ZERO) and q_eq(im, Q_ZERO):
            return
        assert cx_eq(cx_mul(a, cx_inv(a)), CX_ONE)

    @given(surrationals(), surrationals(), surrationals())
    def test_field_laws(self, x, y, z):
        a = GaussianSurRational(x, y)
        b = GaussianSurRational(y, z)
        c = GaussianSurRational(z, x)
        assert cx_eq(cx_add(a, b), cx_add(b, a))
        assert cx_eq(cx_mul(a, b), cx_mul(b, a))
        assert cx_eq(cx_add(cx_add(a, b), c), cx_add(a, cx_add(b, c)))
        assert cx_eq(cx_mul(cx_mul(a, b), c), cx_mul(a, cx_mul(b, c)))
        assert cx_eq(cx_mul(a, cx_add(b, c)), cx_add(cx_mul(a, b), cx_mul(a, c)))
        assert cx_eq(cx_add(a, cx_neg(a)), CX_ZERO)
        assert cx_eq(cx_mul(a, CX_ONE), a)
