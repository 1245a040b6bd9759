"""Definitional-unfolding oracle, raw pair arithmetic, and generators."""

import itertools
import random

import pytest

from transfinita import FragmentExceeded, nat_add, nat_mul, rec_add, rec_mul, rec_pow
from transfinita.oracle import (
    SmallOrdinal,
    def_rec_add,
    def_rec_mul,
    def_rec_pow,
)
from transfinita.ordinal import compare, validate
from transfinita.surinteger import CoordinateForm, from_coordinates, si_add, si_mul
from transfinita.surrational import SurRational

from random_values import (
    random_gaussian,
    random_ordinal,
    random_ordinal_below,
    random_surinteger,
    random_surrational,
)


def pair_add(x: tuple, y: tuple) -> tuple:
    """Componentwise natural sum on raw (ordinal, ordinal) pairs."""
    return (nat_add(x[0], y[0]), nat_add(x[1], y[1]))


def pair_mul(x: tuple, y: tuple) -> tuple:
    """Sign-rule product on raw pairs: first coordinate collects the mixed
    products, second the matching ones."""
    first = nat_add(nat_mul(x[0], y[1]), nat_mul(x[1], y[0]))
    second = nat_add(nat_mul(x[0], y[0]), nat_mul(x[1], y[1]))
    return (first, second)


_GENERATORS = {
    "ordinal": random_ordinal,
    "surinteger": random_surinteger,
    "surrational": random_surrational,
    "gaussian": random_gaussian,
}


def gen_random(kind: str, rng, **bounds):
    """Seeded generator dispatch; ``kind`` is one of ordinal, surinteger,
    surrational, gaussian."""
    return _GENERATORS[kind](rng, **bounds)


class TestDefinitionalRecursion:
    def test_absorption_asymmetry(self):
        assert def_rec_add(SmallOrdinal(0, 1), SmallOrdinal(1, 0)) == SmallOrdinal(1, 0)
        assert def_rec_add(SmallOrdinal(1, 0), SmallOrdinal(0, 1)) == SmallOrdinal(1, 1)

    def test_degree_one_sum(self):
        assert def_rec_add(SmallOrdinal(1, 2), SmallOrdinal(1, 3)) == SmallOrdinal(2, 3)

    def test_product_limits(self):
        assert def_rec_mul(SmallOrdinal(0, 2), SmallOrdinal(1, 0)) == SmallOrdinal(1, 0)
        assert def_rec_mul(SmallOrdinal(1, 0), SmallOrdinal(0, 2)) == SmallOrdinal(2, 0)
        assert def_rec_mul(SmallOrdinal(3, 3), SmallOrdinal(0, 0)) == SmallOrdinal(0, 0)

    def test_power_limits(self):
        assert def_rec_pow(SmallOrdinal(0, 2), SmallOrdinal(1, 0)) == SmallOrdinal(1, 0)
        assert def_rec_pow(SmallOrdinal(0, 3), SmallOrdinal(0, 3), bound=30) == SmallOrdinal(0, 27)

    def test_fragment_escapes(self):
        with pytest.raises(FragmentExceeded):
            def_rec_mul(SmallOrdinal(1, 0), SmallOrdinal(1, 0))  # w*w
        with pytest.raises(FragmentExceeded):
            def_rec_add(SmallOrdinal(8, 0), SmallOrdinal(8, 0), bound=8)
        with pytest.raises(FragmentExceeded):
            def_rec_add(SmallOrdinal(9, 0), SmallOrdinal(0, 0), bound=8)

    @pytest.mark.parametrize("defop,op", [
        (def_rec_add, rec_add),
        (def_rec_mul, rec_mul),
        (def_rec_pow, rec_pow),
    ])
    def test_agreement_on_small_fragment(self, defop, op):
        for xa, xb, ya, yb in itertools.product(range(5), repeat=4):
            x, y = SmallOrdinal(xa, xb), SmallOrdinal(ya, yb)
            try:
                ref = defop(x, y)
            except FragmentExceeded:
                continue
            assert op(x.to_ordinal(), y.to_ordinal()) == ref.to_ordinal(), (x, y)


class TestRawPairs:
    def test_sign_pure_examples(self):
        one = SmallOrdinal(0, 1).to_ordinal()
        three = SmallOrdinal(0, 3).to_ordinal()
        zero = SmallOrdinal(0, 0).to_ordinal()
        s = pair_add((one, zero), (zero, three))  # -1 plus +3
        assert from_coordinates(CoordinateForm(*s)) == from_coordinates(
            CoordinateForm(one, three)
        )

    def test_pair_arithmetic_matches_signed_normal_forms(self, rng):
        # the raw componentwise operations project onto the ring operations
        for _ in range(200):
            x = (random_ordinal(rng, depth=1), random_ordinal(rng, depth=1))
            y = (random_ordinal(rng, depth=1), random_ordinal(rng, depth=1))
            sx = from_coordinates(CoordinateForm(*x))
            sy = from_coordinates(CoordinateForm(*y))
            assert from_coordinates(CoordinateForm(*pair_add(x, y))) == si_add(sx, sy)
            assert from_coordinates(CoordinateForm(*pair_mul(x, y))) == si_mul(sx, sy)


class TestGenerators:
    def test_validity_across_seeds(self):
        from transfinita.surinteger import validate as si_validate

        for seed in range(10_000):
            rng = random.Random(seed)
            validate(random_ordinal(rng))
            si_validate(random_surinteger(rng))
            p = random_surrational(rng)
            assert not p.den.is_zero

    def test_deterministic_under_seed(self):
        a = gen_random("surinteger", random.Random(42))
        b = gen_random("surinteger", random.Random(42))
        assert a == b

    def test_below_sampler(self, rng):
        for _ in range(300):
            a = random_ordinal(rng)
            if a.is_zero:
                continue
            x = random_ordinal_below(a, rng)
            validate(x)
            assert compare(x, a) < 0

    def test_kind_dispatch(self, rng):
        assert isinstance(gen_random("surrational", rng), SurRational)
