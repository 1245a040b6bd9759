"""The hyperoperation tower, tetration, and tower-closure points."""

import random

import hypothesis.strategies as st
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
    TransfinitaError,
    Undefined,
    Unsupported,
    compare,
    hyperop,
    is_hyper_number,
    next_hyper_number,
    rec_add,
    rec_mul,
    rec_pow,
    successor,
    tetration,
)
from transfinita.ordinal import OrdinalClass, _check_pow_digits, _make, classify, predecessor
from transfinita.ordinal import _depth as depth

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

    @given(ordinals().map(successor))
    def test_successor_heights_follow_the_recursion(self, b):
        ctx = EvalContext(max_digits=1000)
        for a in (ZERO, ONE, Ordinal(2), OMEGA):
            for n in range(4, 8):
                try:
                    lhs = hyperop(n, a, b, ctx)
                    rhs = hyperop(n - 1, a, hyperop(n, a, predecessor(b), ctx), ctx)
                except TransfinitaError:
                    continue
                assert lhs == rhs, (n, a, b)


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


# H[n](a, b) by the index recursion alone, with each supremum read off 8
# samples of the fundamental sequence: the reference that hyperop's closed
# forms must match wherever it gives a value or NotRepresentable.  Indices
# below 4 are hyperop's.

# intermediate samples inside a supremum never need more room than this
_SUP_SAMPLE_DIGITS = 10**6
# cofinal samples taken to read off a supremum
_SUP_SAMPLES = 8


def _sup_over_limit(gen, ctx: EvalContext) -> Ordinal:
    sample_ctx = EvalContext(max_digits=min(ctx.max_digits, _SUP_SAMPLE_DIGITS))
    vals = []
    for k in range(1, _SUP_SAMPLES + 1):
        try:
            vals.append(gen(k, sample_ctx))
        except ResourceExceeded:
            # the sample is finite but past the budget: a strictly growing
            # run of finite values along a cofinal sequence tops out at omega
            if len(vals) >= 2 and all(v.is_finite for v in vals) and _increasing(vals):
                return OMEGA
            raise
    tail = vals[-3:]
    if tail[0] == tail[1] == tail[2]:
        return tail[0]
    if all(v.is_finite for v in vals) and _increasing(vals):
        return OMEGA
    return _limit_of_samples(tail)


def _increasing(vals) -> bool:
    return all(x < y for x, y in zip(vals, vals[1:]))


def _limit_of_samples(tail, budget: int = 4) -> Ordinal:
    """Symbolic supremum of a strictly increasing sampled tail of length 3."""
    if budget == 0:
        raise Unsupported("no stable shape detected in the supremum sequence")
    if not _increasing(tail):
        raise Unsupported("supremum sequence is not monotone")
    if all(v.is_finite for v in tail):
        return OMEGA
    if depth(tail[0]) < depth(tail[1]) < depth(tail[2]):
        raise NotRepresentable("the supremum exceeds the notation boundary")
    x, y, z = tail
    if (
        len(x) == len(y) == len(z)
        and x[:-1] == y[:-1] == z[:-1]
    ):
        (ex, cx), (ey, cy), (ez, cz) = x[-1], y[-1], z[-1]
        prefix = _make(x[:-1])
        if ex == ey == ez and cx < cy < cz:
            return rec_add(prefix, _make(((successor(ex), 1),)))
        if ex < ey < ez:
            e_lim = _limit_of_samples([ex, ey, ez], budget - 1)
            return rec_add(prefix, _make(((e_lim, 1),)))
    raise Unsupported("no stable shape detected in the supremum sequence")


def fundamental_sequence(b: Ordinal, k: int) -> Ordinal:
    """k-th member of the canonical increasing sequence cofinal in limit b."""
    if classify(b) is not OrdinalClass.LIMIT:
        raise Undefined("fundamental sequences exist only for limit ordinals")
    e, c = b[-1]
    prefix = b[:-1] + ((e, c - 1),) if c > 1 else b[:-1]
    return rec_add(_make(prefix), _omega_power_fs(e, k))


def _omega_power_fs(e: Ordinal, k: int) -> Ordinal:
    # canonical sequence below w^e, e >= 1
    if classify(e) is OrdinalClass.SUCCESSOR:
        if k == 0:
            return ZERO
        return _make(((predecessor(e), k),))
    return _make(((fundamental_sequence(e, k), 1),))


def _unfold(n, a, b, ctx):
    if n < 4:
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
    if a.is_finite and int(a) <= 1:
        # the samples are all 1, or alternate 1, 0 (which the sampler refuses)
        return ONE
    return _sup_over_limit(lambda k, c: _unfold(n, a, fundamental_sequence(b, k), c), ctx)


class TestLargeIndices:
    def check_against_the_unfolding(self, ns, bases, heights):
        ctx = EvalContext(max_digits=1000)
        for n in ns:
            for a in map(o, bases):
                for b in map(o, heights):
                    got = _outcome(lambda: hyperop(n, a, b, ctx))
                    want = _outcome(lambda: _unfold(n, a, b, ctx))
                    if want[0] is ResourceExceeded and not b.is_finite:
                        # a sample past the budget hid the supremum, which is w
                        want = ("value", OMEGA)
                    assert got == want, (n, a, b)

    def test_shortcut_matches_the_unfolding(self):
        self.check_against_the_unfolding(
            range(6, 13),
            ("2", "3", "w", "w + 1", "w*2", "w^2", "w^w", "w^2*3 + w + 5", "w^(w^2)"),
            ("2", "3", "5", "w", "w + 1", "w*2"),
        )

    def test_closed_forms_match_the_sampled_suprema(self):
        # w^2 only for the bases whose unfolding ends: for finite bases from
        # 2 on it nests 8 samples 8 deep
        bases = ("0", "1", "2", "3", "5", "w", "w + 1", "w*2", "w^2", "w^w")
        heights = ("w", "w + 1", "w + 5", "w*2", "w*2 + 3")
        self.check_against_the_unfolding(range(4, 9), bases, heights)
        self.check_against_the_unfolding(
            range(4, 9), ("0", "1", "w", "w + 1", "w*2", "w^2", "w^w"), ("w^2",)
        )

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

    def test_transfinite_arguments(self):
        # index 5 already leaves the notation for a transfinite base
        with pytest.raises(NotRepresentable):
            hyperop(OMEGA, OMEGA, Ordinal(2))
        assert hyperop(OMEGA, Ordinal(2), OMEGA) == OMEGA
        assert hyperop(OMEGA, Ordinal(2), o("w + 1")) == o("w*2")

    @given(st.integers(2, 9), ordinals().filter(lambda b: not b.is_finite))
    def test_index_three_is_the_largest_below_a_transfinite_height(self, m, b):
        m = Ordinal(m)
        top = hyperop(OMEGA, m, b)
        assert top == hyperop(3, m, b)
        for i in range(9):
            assert top >= hyperop(i, m, b), i

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
