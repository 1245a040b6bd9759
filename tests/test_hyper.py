"""The hyperoperation tower, tetration, and tower-closure points."""

import random

import pytest
from hypothesis import given

from transfinita import (
    LT,
    OMEGA,
    ONE,
    ZERO,
    EvalContext,
    NotRepresentable,
    Ordinal,
    ResourceExceeded,
    Undefined,
    Unsupported,
    compare,
    fundamental_sequence,
    hyperop,
    is_hyper_number,
    next_hyper_number,
    rec_add,
    rec_mul,
    rec_pow,
    successor,
    tetration,
)
from transfinita.hyper import _sup_over_limit
from transfinita.ordinal import OrdinalClass, _check_pow_digits, classify, predecessor

from conftest import o, ordinals
from random_values import random_ordinal_below


class TestClauseTable:
    @given(ordinals(), ordinals())
    def test_index_zero_is_successor_of_first_argument(self, a, b):
        assert hyperop(0, a, b) == successor(a)

    @given(ordinals(depth=1), ordinals(depth=1))
    def test_low_indices_agree_with_recursive_operations(self, a, b):
        assert hyperop(1, a, b) == rec_add(a, b)
        assert hyperop(2, a, b) == rec_mul(a, b)
        assert hyperop(3, a, b) == rec_pow(a, b)

    def test_base_rows(self):
        a = o("w*2 + 1")
        assert hyperop(1, a, ZERO) == a
        assert hyperop(1, a, ONE) == successor(a)
        assert hyperop(2, a, ZERO) == ZERO
        assert hyperop(2, a, ONE) == a
        for idx in (3, 4, 5):
            assert hyperop(idx, a, ZERO) == ONE
            assert hyperop(idx, a, ONE) == a

    def test_finite_exponentiation(self):
        assert hyperop(3, Ordinal(2), Ordinal(3)) == Ordinal(8)

    @given(ordinals(depth=0, max_coeff=3))
    def test_tower_identity(self, a):
        for n in (3, 4):
            for k in (2, 3):
                ctx = EvalContext(max_digits=10_000)
                try:
                    lhs = hyperop(n + 1, a, Ordinal(k), ctx)
                    rhs = hyperop(n, a, hyperop(n + 1, a, Ordinal(k - 1), ctx), ctx)
                except ResourceExceeded:
                    continue
                assert lhs == rhs

    def test_finite_arguments_stay_finite(self):
        for i in range(6):
            for m in range(4):
                for n in range(4):
                    try:
                        v = hyperop(i, Ordinal(m), Ordinal(n), EvalContext(max_digits=200))
                    except ResourceExceeded:
                        continue
                    assert v.is_finite


class TestFiniteIndexTowers:
    def test_height_four_towers(self):
        assert hyperop(4, Ordinal(2), Ordinal(4)) == Ordinal(65536)
        w = OMEGA
        assert hyperop(4, w, Ordinal(4)) == rec_pow(w, rec_pow(w, rec_pow(w, w)))

    def test_degenerate_bases(self):
        assert hyperop(4, ONE, o("w*2")) == ONE
        assert hyperop(5, ZERO, Ordinal(4)) == ONE
        assert hyperop(5, ZERO, Ordinal(5)) == ZERO
        assert hyperop(4, ZERO, OMEGA) == ONE

    def test_budget_guard(self):
        with pytest.raises(ResourceExceeded):
            hyperop(4, Ordinal(3), Ordinal(4), EvalContext(max_digits=1000))
        with pytest.raises(ResourceExceeded):
            hyperop(5, Ordinal(3), Ordinal(3), EvalContext(max_digits=10**6))

    def test_default_budget_stops_unbuildable_towers(self):
        # 3^^4 = 3^(3^27) has about 3.6e12 digits: refused before 3**7625597484987
        with pytest.raises(ResourceExceeded):
            tetration(Ordinal(3), Ordinal(4))


# H[i](m, x) unfolded on plain ints for i >= 3: the reference for the one
# Ordinal recursion that hyperop runs on finite and transfinite arguments.
def _ref_hyper_int(i, m, x, max_digits):
    if i == 3:
        _check_pow_digits(m, x, max_digits)
        return m**x
    if m == 0:
        return 1 if x % 2 == 0 else 0
    if m == 1:
        return 1
    if x == 0:
        return 1
    if x == 1:
        return m
    v = m
    for _ in range(x - 1):
        v = _ref_hyper_int(i - 1, m, v, max_digits)
    return v


def _outcome(fn):
    try:
        return ("value", fn())
    except Exception as err:
        return (type(err), str(err))


class TestIntegerReference:
    @pytest.mark.parametrize("max_digits", [1, 20, 10**5, 10**6])
    def test_finite_arguments_match_integer_recursion(self, max_digits):
        ctx = EvalContext(max_digits=max_digits)
        for n in range(4, 8):
            for m in range(7):
                for k in range(7):
                    got = _outcome(lambda: int(hyperop(n, Ordinal(m), Ordinal(k), ctx)))
                    want = _outcome(lambda: _ref_hyper_int(n, m, k, max_digits))
                    assert got == want, (n, m, k, max_digits)


# H[n](a, b) for n >= 6 by the index recursion alone, with no shortcut: the
# reference for hyperop's n >= 6 shortcut.  Indices below 6 are hyperop's.
def _unfold(n, a, b, ctx):
    if n < 6:
        return hyperop(n, a, b, ctx)
    if b.is_zero:
        return ONE
    if b == ONE:
        return a
    if b.is_finite:
        v = a
        for _ in range(int(b) - 1):
            v = _unfold(n - 1, a, v, ctx)
        return v
    if classify(b) is OrdinalClass.SUCCESSOR:
        return _unfold(n - 1, a, _unfold(n, a, predecessor(b), ctx), ctx)
    return _sup_over_limit(lambda k, c: _unfold(n, a, fundamental_sequence(b, k), c), ctx)


class TestLargeIndices:
    BASES = ("2", "3", "w", "w + 1", "w*2", "w^2", "w^w", "w^2*3 + w + 5", "w^(w^2)")
    SECONDS = ("2", "3", "5", "w", "w + 1", "w*2")

    def test_shortcut_matches_the_unfolding(self):
        ctx = EvalContext(max_digits=1000)
        for n in range(6, 13):
            for a in map(o, self.BASES):
                for b in map(o, self.SECONDS):
                    got = _outcome(lambda: hyperop(n, a, b, ctx))
                    want = _outcome(lambda: _unfold(n, a, b, ctx))
                    assert got == want, (n, a, b)

    def test_transfinite_base_at_a_large_index(self):
        # raised RecursionError while the index was unfolded one call per level
        with pytest.raises(NotRepresentable):
            hyperop(500, OMEGA, Ordinal(2))


class TestTetration:
    def test_finite(self):
        assert tetration(Ordinal(2), Ordinal(3)) == Ordinal(16)

    def test_omega_squared_tower(self):
        assert tetration(OMEGA, Ordinal(2)) == o("w^w")
        assert tetration(OMEGA, Ordinal(3)) == o("w^(w^w)")

    def test_finite_base_to_omega(self):
        assert tetration(Ordinal(2), OMEGA) == OMEGA
        assert tetration(Ordinal(3), OMEGA) == OMEGA

    def test_omega_tower_leaves_the_notation(self):
        with pytest.raises(NotRepresentable):
            tetration(OMEGA, OMEGA)
        with pytest.raises(NotRepresentable):
            tetration(OMEGA, o("w + 1"))

    def test_limit_heights_past_omega(self):
        assert tetration(Ordinal(2), o("w*2")) == OMEGA


class TestOmegaIndex:
    def test_diagonal_at_three(self):
        assert hyperop(OMEGA, Ordinal(3), Ordinal(3)) == OMEGA

    def test_fixed_point_of_every_index(self):
        assert hyperop(OMEGA, Ordinal(2), Ordinal(2)) == Ordinal(4)

    def test_degenerate_bases(self):
        assert hyperop(OMEGA, ZERO, Ordinal(5)) == Ordinal(5)
        assert hyperop(OMEGA, ONE, Ordinal(5)) == Ordinal(6)

    def test_base_rows_hold_for_any_arguments(self):
        assert hyperop(OMEGA, OMEGA, ZERO) == ONE
        assert hyperop(OMEGA, OMEGA, ONE) == OMEGA

    def test_transfinite_arguments_rejected(self):
        with pytest.raises(Unsupported):
            hyperop(OMEGA, OMEGA, Ordinal(2))
        with pytest.raises(Unsupported):
            hyperop(OMEGA, Ordinal(2), OMEGA)

    def test_indices_above_omega_rejected(self):
        with pytest.raises(Unsupported):
            hyperop(o("w + 1"), Ordinal(2), Ordinal(2))
        with pytest.raises(Unsupported):
            hyperop(o("w*2"), Ordinal(2), Ordinal(2))


class TestFundamentalSequence:
    @given(ordinals())
    def test_increasing_and_below(self, b):
        from transfinita import OrdinalClass, classify

        if classify(b) is not OrdinalClass.LIMIT:
            return
        prev = None
        for k in range(1, 6):
            v = fundamental_sequence(b, k)
            assert compare(v, b) == LT
            if prev is not None:
                assert compare(prev, v) == LT
            prev = v

    def test_rejects_non_limits(self):
        with pytest.raises(Undefined):
            fundamental_sequence(o("w + 1"), 3)


class TestHyperClosurePoints:
    def test_examples(self):
        assert is_hyper_number(1, o("w^2"))
        assert is_hyper_number(2, o("w^w"))
        assert not is_hyper_number(2, o("w^3"))
        assert is_hyper_number(4, OMEGA)
        assert not is_hyper_number(3, o("w^w"))

    def test_index_zero_undefined(self):
        with pytest.raises(Undefined):
            is_hyper_number(0, OMEGA)

    def test_next_examples(self):
        assert next_hyper_number(1, OMEGA) == o("w^2")
        assert next_hyper_number(2, OMEGA) == o("w^w")
        with pytest.raises(NotRepresentable):
            next_hyper_number(3, OMEGA)

    def test_next_small_cases(self):
        assert next_hyper_number(1, ZERO) == ONE
        assert next_hyper_number(1, ONE) == OMEGA
        assert next_hyper_number(2, ONE) == Ordinal(2)
        assert next_hyper_number(2, Ordinal(2)) == OMEGA
        assert next_hyper_number(3, Ordinal(2)) == OMEGA

    def test_next_requires_a_closure_point(self):
        with pytest.raises(Undefined):
            next_hyper_number(1, o("w*2"))

    @given(ordinals())
    def test_closure_holds_on_samples(self, lam):
        if lam.is_zero or lam == ONE:
            return
        rng = random.Random(23)
        ctx = EvalContext(max_digits=2000)
        for n in (1, 2, 3):
            if not is_hyper_number(n, lam):
                continue
            for _ in range(8):
                b = random_ordinal_below(lam, rng)
                g = random_ordinal_below(lam, rng)
                try:
                    v = hyperop(n, b, g, ctx)
                except ResourceExceeded:
                    continue
                assert compare(v, lam) == LT

    def test_next_at_a_large_index(self):
        # raised RecursionError while the tower was climbed to index n + 1
        with pytest.raises(NotRepresentable):
            next_hyper_number(500, OMEGA)

    def test_next_matches_the_jump_up_the_tower(self):
        # the defining jump: the index-(n+1) hyperoperation of a and omega
        def jump(n, a):
            if not is_hyper_number(n, a):
                raise Undefined(f"{a!r} is not an index-{n} closure point")
            if a.is_zero:
                return ONE
            if a == ONE and n >= 2:
                return Ordinal(2)
            return hyperop(n + 1, a, OMEGA)

        for n in range(1, 7):
            for a in map(o, ("0", "1", "2", "w", "w^2", "w^w", "w^(w^2)")):
                got = _outcome(lambda: next_hyper_number(n, a))
                want = _outcome(lambda: jump(n, a))
                assert got[0] == want[0], (n, a)
                if got[0] == "value":
                    assert got == want, (n, a)
