"""Ordinal normal forms and the recursive arithmetic."""

import copy
import pickle
import random
from functools import cmp_to_key

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from transfinita import (
    EQ,
    GT,
    LT,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalClass,
    SurInteger,
    Undefined,
    base_expand,
    classify,
    compare,
    ordinal_divmod,
    rec_add,
    rec_mul,
    rec_pow,
    rec_sub_left,
    rec_sum,
    successor,
)
from transfinita.errors import ResourceExceeded
from transfinita.hyper import EvalContext, tetration
from transfinita.ordinal import (
    _at_least_pow10,
    _binary_pow,
    _check_pow_digits,
    _dec_exp,
    _decimal_digits,
    _make,
    ordinal_str,
    predecessor,
    validate,
)

from conftest import o, ordinals
from random_values import random_ordinal


class TestCompare:
    def test_zero_is_least(self):
        assert compare(ZERO, OMEGA) == LT

    def test_reflexive(self):
        assert compare(o("w*3 + 5"), o("w*3 + 5")) == EQ

    def test_omega_power_dominates_any_lower_degree(self):
        # frozen from the definitional oracle on the fragment below w^3
        assert compare(o("w^w"), o("w^2*9 + w*9 + 9")) == GT

    @given(ordinals(), ordinals())
    def test_antisymmetric_total(self, a, b):
        c, d = compare(a, b), compare(b, a)
        assert c == -d
        assert (c == EQ) == (a == b)

    @given(ordinals(), ordinals(), ordinals())
    def test_transitive(self, a, b, c):
        if compare(a, b) <= 0 and compare(b, c) <= 0:
            assert compare(a, c) <= 0


def _ref_compare(a, b):
    """The recursive normal-form comparison that tuple order replaced."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = _ref_compare(ea, eb)
        if c:
            return c
        if ca != cb:
            return LT if ca < cb else GT
    if len(a.terms) == len(b.terms):
        return EQ
    return LT if len(a.terms) < len(b.terms) else GT


def _ref_equal(a, b):
    return len(a.terms) == len(b.terms) and all(
        _ref_equal(ea, eb) and ca == cb for (ea, ca), (eb, cb) in zip(a.terms, b.terms)
    )


class TestNativeOrder:
    @given(ordinals(), ordinals())
    def test_tuple_order_is_normal_form_order(self, a, b):
        c = _ref_compare(a, b)
        assert compare(a, b) == c
        assert (a < b, a <= b, a > b, a >= b) == (c < 0, c <= 0, c > 0, c >= 0)
        assert (a == b) == (c == EQ) == _ref_equal(a, b)
        assert (a != b) == (c != EQ)

    @given(ordinals())
    def test_equal_values_hash_equal(self, a):
        b = pickle.loads(pickle.dumps(a))
        assert b is not a and b == a and hash(b) == hash(a)

    @given(st.lists(ordinals(), max_size=12))
    def test_sorted_agrees(self, xs):
        assert sorted(xs) == sorted(xs, key=cmp_to_key(_ref_compare))


class TestValueProtocol:
    def test_plus_and_times_raise(self):
        for op in (
            lambda: ONE + ONE,
            lambda: OMEGA * 2,
            lambda: 2 * OMEGA,
            lambda: OMEGA + (),
            lambda: () + OMEGA,
        ):
            with pytest.raises(TypeError):
                op()

    def test_copy_and_pickle_round_trip(self):
        a = o("w^(w^2*3 + w)*2 + w*5 + 7")
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(b) is Ordinal and b == a and repr(b) == repr(a)
            validate(b)

    def test_never_equals_a_surinteger(self):
        assert Ordinal(3) != SurInteger(3) and SurInteger(3) != Ordinal(3)
        assert not Ordinal(3) == SurInteger(3)

    def test_terms_are_the_value(self):
        assert repr(OMEGA) == "Ordinal[w]"
        assert OMEGA.terms is OMEGA and OMEGA == ((ONE, 1),)
        assert not ZERO and ZERO == ()


class TestClassify:
    def test_zero(self):
        assert classify(ZERO) is OrdinalClass.ZERO

    def test_successor(self):
        assert classify(o("w + 1")) is OrdinalClass.SUCCESSOR

    def test_limit(self):
        assert classify(o("w^2*3")) is OrdinalClass.LIMIT

    @given(ordinals())
    def test_successor_coherence(self, a):
        assert classify(successor(a)) is OrdinalClass.SUCCESSOR
        assert compare(a, successor(a)) == LT

    @given(ordinals(), ordinals())
    def test_limits_have_room_above_members(self, a, b):
        # b < a with a limit: something sits strictly between, namely Sb
        if classify(a) is OrdinalClass.LIMIT and compare(b, a) == LT:
            c = successor(b)
            assert compare(b, c) == LT and compare(c, a) == LT

    @given(ordinals())
    def test_predecessor_round_trip(self, a):
        if classify(a) is OrdinalClass.SUCCESSOR:
            assert successor(predecessor(a)) == a


class TestSuccessor:
    def test_of_zero(self):
        assert successor(ZERO) == ONE

    def test_of_omega(self):
        assert successor(OMEGA) == o("w + 1")

    def test_increments_finite_part(self):
        assert successor(o("w*2 + 4")) == o("w*2 + 5")

    @given(ordinals(), ordinals())
    def test_nothing_between(self, a, b):
        s = successor(a)
        assert not (compare(a, b) == LT and compare(b, s) == LT)


class TestRecAdd:
    def test_one_plus_omega_absorbed(self):
        assert rec_add(ONE, OMEGA) == OMEGA

    def test_omega_plus_one_not_absorbed(self):
        assert rec_add(OMEGA, ONE) == o("w + 1")

    def test_merges_at_common_exponent(self):
        assert rec_add(o("w^2 + w*3"), o("w*5 + 2")) == o("w^2 + w*8 + 2")

    @given(ordinals(), ordinals(), ordinals())
    def test_associative(self, a, b, c):
        assert rec_add(rec_add(a, b), c) == rec_add(a, rec_add(b, c))

    def test_not_commutative(self):
        assert rec_add(ONE, OMEGA) != rec_add(OMEGA, ONE)

    @given(ordinals(), ordinals(), ordinals())
    def test_monotone_right_strict(self, a, b, c):
        if compare(b, c) == LT:
            assert compare(rec_add(a, b), rec_add(a, c)) == LT

    @given(ordinals(), ordinals(), ordinals())
    def test_monotone_left(self, a, a2, b):
        if compare(a, a2) <= 0:
            assert compare(rec_add(a, b), rec_add(a2, b)) <= 0

    @given(ordinals(), ordinals())
    def test_result_is_normal(self, a, b):
        validate(rec_add(a, b))


class TestRecSubLeft:
    def test_absorption_complement(self):
        assert rec_sub_left(ONE, OMEGA) == OMEGA

    def test_finite_tail(self):
        assert rec_sub_left(OMEGA, o("w + 5")) == Ordinal(5)

    def test_dominated_lhs(self):
        assert rec_sub_left(o("w*2"), o("w^2")) == o("w^2")

    def test_requires_strict_order(self):
        with pytest.raises(Undefined):
            rec_sub_left(OMEGA, OMEGA)
        with pytest.raises(Undefined):
            rec_sub_left(o("w + 1"), OMEGA)

    @given(ordinals(), ordinals())
    def test_round_trip(self, a, b):
        if compare(a, b) == LT:
            g = rec_sub_left(a, b)
            validate(g)
            assert rec_add(a, g) == b

    @given(ordinals(), ordinals(), ordinals())
    def test_left_cancellation(self, a, g1, g2):
        # uniqueness of the complement: equal sums force equal addends
        if rec_add(a, g1) == rec_add(a, g2):
            assert g1 == g2


class TestRecMul:
    def test_finite_times_omega_collapses(self):
        assert rec_mul(Ordinal(2), OMEGA) == OMEGA

    def test_omega_times_two(self):
        assert rec_mul(OMEGA, Ordinal(2)) == o("w*2")

    def test_successor_times_omega(self):
        assert rec_mul(o("w + 1"), OMEGA) == o("w^2")

    @given(ordinals(), ordinals(), ordinals())
    def test_associative(self, a, b, c):
        assert rec_mul(rec_mul(a, b), c) == rec_mul(a, rec_mul(b, c))

    @given(ordinals(), ordinals())
    def test_result_is_normal(self, a, b):
        validate(rec_mul(a, b))

    @given(ordinals(), ordinals(), ordinals())
    def test_left_distributive(self, a, b, c):
        assert rec_mul(a, rec_add(b, c)) == rec_add(rec_mul(a, b), rec_mul(a, c))

    @given(st.integers(0, 2**32), st.integers(1, 3))
    @example(0, 1)
    def test_same_as_the_fold(self, seed, depth):
        rng = random.Random(seed)
        for _ in range(20):
            a, b = random_ordinal(rng, depth, 4), random_ordinal(rng, depth, 4)
            got = rec_mul(a, b)
            assert got == _ref_rec_mul(a, b)
            validate(got)

    def test_power_of_a_successor_in_closed_form(self):
        # (w+1)^n = w^n + ... + w + 1: n + 1 terms, quadratic under the fold
        n = 10_000
        expected = _make(tuple((Ordinal(k), 1) for k in range(n, -1, -1)))
        assert rec_pow(o("w + 1"), Ordinal(n)) == expected


def _ref_rec_mul(a, b):
    # rec_mul as a left fold of rec_add over the parts, one per term of b
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


class TestRecPow:
    def test_two_to_omega(self):
        assert rec_pow(Ordinal(2), OMEGA) == OMEGA

    def test_omega_to_omega(self):
        assert rec_pow(OMEGA, OMEGA) == o("w^w")

    def test_successor_base_squared(self):
        assert rec_pow(o("w + 1"), Ordinal(2)) == o("w^2 + w + 1")

    def test_zero_exponent_is_one(self):
        assert rec_pow(ZERO, ZERO) == ONE
        assert rec_pow(OMEGA, ZERO) == ONE

    def test_zero_base(self):
        assert rec_pow(ZERO, o("w*2 + 1")) == ZERO

    def test_finite_base_composite_exponent(self):
        # 2^(w*2 + 3) = (2^w)^2 * 2^3
        assert rec_pow(Ordinal(2), o("w*2 + 3")) == o("w^2*8")

    @given(ordinals(depth=1, max_terms=2, max_coeff=4), ordinals(depth=1, max_terms=2, max_coeff=3))
    def test_exponent_additivity(self, a, b):
        c = Ordinal(2)
        lhs = rec_pow(a, rec_add(b, c))
        rhs = rec_mul(rec_pow(a, b), rec_pow(a, c))
        assert lhs == rhs

    @given(ordinals(depth=1, max_terms=2, max_coeff=4), ordinals(depth=1, max_terms=2, max_coeff=4))
    def test_result_is_normal(self, a, b):
        validate(rec_pow(a, b))

    @given(ordinals().filter(bool), ordinals().filter(bool))
    @example(ONE, Ordinal(3))  # finite b
    @example(o("w + 2"), o("w^2*3 + 4"))  # successor b
    @example(o("w^w"), o("w^(w + 1) + w*5"))  # limit b
    def test_omega_power_base(self, z, b):
        # (w^z)^b = w^(z*b), and the same as the case split for any
        # transfinite base: limit part of b, then square-and-multiply
        a = _make(((z, 1),))
        assert rec_pow(a, b) == _make(((rec_mul(z, b), 1),))
        assert rec_pow(a, b) == _ref_transfinite_base_pow(a, b)

    @given(st.integers(2, 9), ordinals(depth=3).filter(lambda b: not b.is_finite))
    @example(2, o("w^(w + 1)*2 + w^3 + w*4 + 5"))
    def test_finite_base(self, m, b):
        assert rec_pow(Ordinal(m), b) == _ref_finite_base_pow(m, b)


def _refusal(base, exp, max_digits):
    try:
        _check_pow_digits(base, exp, max_digits)
    except ResourceExceeded as err:
        return str(err)
    return None


class TestDigitBudget:
    def test_decimal_digits_counts_like_str(self):
        # at and next to each power of ten, where n and 10^d have the same
        # bit length, and on random ints of up to 10,000 bits
        rng = random.Random(7)
        ns = [n for k in range(1, 3000) for n in (10**k - 1, 10**k, 10**k + 1)]
        ns += [rng.getrandbits(rng.randrange(1, 10_000)) | 1 for _ in range(2000)]
        for n in ns:
            assert _decimal_digits(n) == len(str(n)), n

    @pytest.mark.parametrize("base", [3, 10])
    def test_band_edges_against_the_digits(self, base):
        # a budget of exactly the power's digit count fits, and one digit
        # less is refused; for base 3 that budget is inside the band
        for exp in [*range(2, 400), 1000, 3001, 20_000]:
            p = base**exp
            d = len(str(p))
            assert _check_pow_digits(base, exp, d) in (None, p)
            assert _refusal(base, exp, d - 1) is not None

    @given(
        st.one_of(st.integers(2, 12), st.integers(2, 10**30)),
        st.integers(2, 3000),
        st.integers(-2, 1),
    )
    @example(10, 99999, 1)  # exactly the budget's 100,000 digits
    @example(10, 1000, -1)
    @example(2, 332193, 0)  # 100,001 digits, just past the coarse bound's band
    @example(3, 1000, 0)
    def test_exact_against_the_digits(self, base, exp, shift):
        # a budget at, just under and just over the power's digit count d:
        # refused exactly when d > budget, naming the largest k with d > 10^k
        d = len(str(base**exp))
        budget = max(d + shift, 1)
        refused = _refusal(base, exp, budget)
        if d <= budget:
            assert refused is None
        else:
            k = len(str(d - 1)) - 1
            assert refused is not None and refused.startswith(
                f"finite power needs a number with more than 10^{k} digits, "
            )

    @pytest.mark.parametrize("d", [1, 19, 20, 64, 1000, 65_536, 200_003])
    def test_powers_of_ten_and_their_neighbours(self, d):
        # 10^d - 1, 10^d and 10^d + 1 share 10^d's bit length and its
        # leading 64 bits, so 5^d decides them
        p = 10**d
        assert [_at_least_pow10(n, d) for n in (p - 1, p, p + 1)] == [False, True, True]

    @pytest.mark.parametrize("k", [10, 321, 40_000])
    def test_band_edges_next_to_a_power_of_ten(self, k):
        # (10^k - 1)^2 has 2k digits and (10^k + 1)^2 has 2k + 1: against a
        # budget of 2k both are in the band, and within 10^-9 of 10^(2k) in
        # log2
        assert _check_pow_digits(10**k - 1, 2, 2 * k) == (10**k - 1) ** 2
        assert _refusal(10**k + 1, 2, 2 * k) is not None
        assert _refusal(10**k - 1, 2, 2 * k - 1) is not None
        assert _check_pow_digits(10**k + 1, 2, 2 * k + 1) in (None, (10**k + 1) ** 2)

    @given(st.integers(0, 5000), st.integers(-5, 5), st.integers(-(10**20), 10**20))
    def test_at_least_pow10_against_the_power(self, d, near, far):
        # next to 10^d, and up to 2^-3 of it away, where the leading bits
        # decide
        p = 10**d
        for n in (p + near, p + far * (p >> 70)):
            if n >= 0:
                assert _at_least_pow10(n, d) == (n >= p)

    def test_band_between_the_bounds_is_decided_exactly(self):
        # 1653915 * log10(3) lies 3.3e-7 below 789118, and 2319052 * log10(3)
        # 1.4e-7 above 1106469: closer than the bounds' 2^-40 can tell
        assert _refusal(3, 1653915, 789118) is None
        assert "more than 10^6 digits" in _refusal(3, 2319052, 1106469)

    def test_band_power_is_built_once(self):
        # in the band the check builds the power and hands it to rec_pow,
        # which returns the same value and refuses with the same error
        power = 3**1653915
        assert _check_pow_digits(3, 1653915, 789118) == power
        assert _check_pow_digits(3, 40, 789118) is None  # decided by the bounds
        assert rec_pow(Ordinal(3), Ordinal(1653915), 789118) == Ordinal(power)
        # 3^(w + k) = w * 3^k: the finite part goes through the same check
        assert rec_pow(Ordinal(3), o("w + 1653915"), 789118) == rec_mul(OMEGA, Ordinal(power))
        with pytest.raises(ResourceExceeded, match=r"more than 10\^6 digits, budget is "
                           r"10\^6-ish \(1106469\)"):
            rec_pow(Ordinal(3), Ordinal(2319052), 1106469)

    def test_rec_pow_takes_the_checked_power(self, monkeypatch):
        # a power that the check built is not built again
        monkeypatch.setattr("transfinita.ordinal._check_pow_digits", lambda base, exp, digits: 7)
        assert rec_pow(Ordinal(3), Ordinal(5)) == Ordinal(7)
        assert rec_pow(Ordinal(3), o("w + 5")) == rec_mul(OMEGA, Ordinal(7))

    def test_named_power_of_ten(self):
        # 2^10000000 has 3,010,300 digits; 10^1000000 has 1,000,001
        assert "more than 10^6 digits" in _refusal(2, 10**7, 100_000)
        assert "more than 10^6 digits" in _refusal(10, 10**6, 100_000)
        assert "more than 10^5 digits" in _refusal(10, 10**5, 100_000)
        assert _refusal(10, 99_999, 100_000) is None
        assert len(str(int(rec_pow(Ordinal(10), Ordinal(99_999), 100_000)))) == 100_000

    def test_astronomical_exponents_stay_integers(self):
        # 6^^4 = 6^46656 has 36,306 digits, so 6^^5 has about 10^36305 digits
        with pytest.raises(ResourceExceeded, match=r"more than 10\^36305 digits"):
            tetration(Ordinal(6), Ordinal(6), EvalContext(max_digits=100_000))
        with pytest.raises(ResourceExceeded, match=r"more than 10\^36305 digits"):
            _check_pow_digits(6, 6**46656, 10**6)


def _ref_finite_base_pow(m, b):
    # rec_pow's case split for a finite base m >= 2 and a transfinite b, the
    # leading exponent folded term by term through rec_add
    head_exp = ZERO
    for e, k in b:
        if e:
            head_exp = rec_add(head_exp, _make(((_dec_exp(e), k),)))
    head = _make(((head_exp, 1),))
    finite_part = b[-1][1] if not b[-1][0] else 0
    return rec_mul(head, Ordinal(m**finite_part)) if finite_part else head


def _ref_transfinite_base_pow(a, b):
    # rec_pow's case split for a transfinite base a and b > 0
    finite_part = b[-1][1] if not b[-1][0] else 0
    za = a[0][0]
    limit = _make(b[:-1]) if finite_part else b
    if limit:
        head = _make(((rec_mul(za, limit), 1),))
        if finite_part:
            return rec_mul(head, _binary_pow(a, finite_part, rec_mul, ONE))
        return head
    return _binary_pow(a, finite_part, rec_mul, ONE)


class TestRecSum:
    def test_empty(self):
        assert rec_sum([], 0) == ZERO

    def test_fold_order(self):
        assert rec_sum([ONE, OMEGA, ONE], 3) == o("w + 1")

    def test_pair(self):
        assert rec_sum([OMEGA, OMEGA], 2) == o("w*2")

    def test_prefix(self):
        assert rec_sum([ONE, ONE, ONE], 2) == Ordinal(2)

    @given(ordinals(), ordinals(), ordinals())
    def test_associative_split(self, a, b, c):
        seq = [a, b, c]
        assert rec_sum(seq, 3) == rec_add(rec_sum(seq, 1), rec_sum(seq[1:], 2))


class TestDivmod:
    @given(ordinals(), ordinals())
    def test_recomposition_and_remainder_bound(self, a, d):
        if d.is_zero:
            return
        qt, r = ordinal_divmod(a, d)
        validate(qt), validate(r)
        assert rec_add(rec_mul(d, qt), r) == a
        assert compare(r, d) == LT


class TestBaseExpand:
    def test_base_omega_is_normal_form(self):
        exp = base_expand(o("w^2*3 + w + 4"), OMEGA)
        assert [(e, int(d)) for e, d in exp.digits] == [
            (Ordinal(2), 3),
            (ONE, 1),
            (ZERO, 4),
        ]

    def test_school_base_ten(self):
        exp = base_expand(Ordinal(255), Ordinal(10))
        assert [(int(e), int(d)) for e, d in exp.digits] == [(2, 2), (1, 5), (0, 5)]

    def test_omega_in_base_two(self):
        exp = base_expand(OMEGA, Ordinal(2))
        assert [(e, int(d)) for e, d in exp.digits] == [(OMEGA, 1)]

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(Undefined):
            base_expand(OMEGA, ONE)
        with pytest.raises(Undefined):
            base_expand(ZERO, Ordinal(2))

    @pytest.mark.parametrize("base_text", ["2", "10", "w", "w + 1"])
    @given(a=ordinals())
    def test_round_trip_and_digit_bounds(self, base_text, a):
        if a.is_zero:
            return
        base = o(base_text)
        exp = base_expand(a, base)
        assert exp.recompose() == a
        prev = None
        for e, d in exp.digits:
            assert compare(ZERO, d) == LT and compare(d, base) == LT
            if prev is not None:
                assert compare(e, prev) == LT
            prev = e


def test_str_nests_compound_exponents():
    assert ordinal_str(o("w^(w^2)*3 + w*2 + 7")) == "w^(w^2)*3 + w*2 + 7"
    assert ordinal_str(ZERO) == "0"


def test_int_conversion_guards():
    assert int(Ordinal(7)) == 7
    with pytest.raises(Undefined):
        int(OMEGA)
    with pytest.raises(Undefined):
        Ordinal(-1)
