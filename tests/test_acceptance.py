"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single ``[criterion N] PASS`` line (visible with
``pytest -s tests/test_acceptance.py``).  All comparisons are exact; the
random suites are seeded and run at the stated sample counts.
"""

import itertools
import random

import pytest

from transfinita import (
    LT,
    NO_WITNESS,
    NOT_CYCLIC,
    OMEGA,
    ONE,
    ZERO,
    ClosureKind,
    FragmentExceeded,
    NotRepresentable,
    Ordinal,
    RootCut,
    SurInteger,
    SurRational,
    archimedean_witness,
    base_expand,
    classify_root_cut,
    compare,
    cut_member,
    cx_eq,
    cx_inv,
    cx_mul,
    cyclic_decompose,
    from_coordinates,
    hyperop,
    midpoint,
    nat_add,
    next_closure,
    parse,
    print_canonical,
    q_add,
    q_compare,
    q_eq,
    q_mul,
    q_neg,
    rec_add,
    rec_mul,
    rec_pow,
    si_add,
    si_compare,
    si_mul,
    tetration,
    to_coordinates,
    try_parse,
    value_equal,
)
from transfinita.cuts import CX_ONE, GaussianSurRational
from transfinita.expr import evaluate
from transfinita.oracle import (
    SmallOrdinal,
    def_rec_add,
    def_rec_mul,
    def_rec_pow,
)
from transfinita.surinteger import S_ONE, S_ZERO, neg, si_abs
from transfinita.surrational import Q_ONE, Q_ZERO, q_abs, q_inv, q_sub

from conftest import o, q, si
from random_values import random_gaussian, random_ordinal, random_surinteger, random_surrational

TWO = Ordinal(2)


def _passed(n, detail):
    print(f"[criterion {n}] PASS: {detail}")


def test_criterion_1_identity_table():
    w = OMEGA
    assert rec_add(ONE, w) == w
    assert rec_add(w, ONE) == o("w + 1")
    assert nat_add(ONE, w) == o("w + 1")
    assert nat_add(w, ONE) == rec_add(w, ONE)

    for a in (TWO, w):
        tower = rec_pow(a, rec_pow(a, rec_pow(a, a)))
        assert hyperop(4, a, Ordinal(4)) == tower
    assert hyperop(4, TWO, Ordinal(4)) == Ordinal(65536)

    assert hyperop(w, Ordinal(3), Ordinal(3)) == w

    assert next_closure(ClosureKind.GAMMA_ADD, w) == o("w^2")
    assert next_closure(ClosureKind.DELTA_MUL, w) == o("w^w")

    assert rec_pow(w, w) == o("w^w")
    assert next_closure(ClosureKind.NAT_MUL, o("w^w")) == o("w^(w^2)")

    with pytest.raises(NotRepresentable):
        tetration(w, w)
    _passed(1, "exact identity table, including the notation boundary")


def test_criterion_2_five_term_coordinate_form():
    a = si("w^5*4 - w^4*2 - w^2*7 + w*3 - 1")
    c = to_coordinates(a)
    assert c.negative == o("w^4*2 + w^2*7 + 1")
    assert c.positive == o("w^5*4 + w*3")
    assert from_coordinates(c) == a
    _passed(2, "five-term signed form splits and recombines bit-exactly")


N_RING = 10_000


def test_criterion_3_ordered_ring_suite():
    rng = random.Random(3)
    triples = [
        (random_surinteger(rng), random_surinteger(rng), random_surinteger(rng))
        for _ in range(N_RING)
    ]
    for a, b, c in triples:
        assert si_add(si_add(a, b), c) == si_add(a, si_add(b, c))          # 1
        assert si_add(a, b) == si_add(b, a)                                # 2
        assert si_add(a, S_ZERO) == a                                      # 3
        assert si_add(a, neg(a)) == S_ZERO                                 # 4
        assert si_mul(si_mul(a, b), c) == si_mul(a, si_mul(b, c))          # 5
        assert si_mul(a, b) == si_mul(b, a)                                # 6
        assert si_mul(a, S_ONE) == a                                       # 7
        assert si_mul(a, si_add(b, c)) == si_add(si_mul(a, b), si_mul(a, c))  # 8
        b_hi = si_add(a, si_add(si_abs(b), S_ONE))                         # 9
        d_hi = si_add(c, S_ONE)
        assert si_compare(si_add(a, c), si_add(b_hi, d_hi)) == LT
        pa, pb = si_add(si_abs(a), S_ONE), si_add(si_abs(b), S_ONE)        # 10
        assert si_compare(S_ZERO, si_mul(pa, pb)) == LT
    _passed(3, f"ring laws 1-10 on {N_RING} random triples")


N_FIELD = 10_000


def test_criterion_4_ordered_field_suite():
    rng = random.Random(4)
    half = q("1/2")
    triples = [
        (random_surrational(rng), random_surrational(rng), random_surrational(rng))
        for _ in range(N_FIELD)
    ]
    for p, r, s in triples:
        assert q_eq(q_add(q_add(p, r), s), q_add(p, q_add(r, s)))          # 1
        assert q_eq(q_add(p, r), q_add(r, p))                              # 2
        assert q_eq(q_add(p, Q_ZERO), p)                                   # 3
        assert q_eq(q_add(p, q_neg(p)), Q_ZERO)                            # 4
        assert q_eq(q_mul(q_mul(p, r), s), q_mul(p, q_mul(r, s)))          # 5
        assert q_eq(q_mul(p, r), q_mul(r, p))                              # 6
        assert q_eq(q_mul(p, Q_ONE), p)                                    # 7
        assert q_eq(q_mul(p, q_add(r, s)), q_add(q_mul(p, r), q_mul(p, s)))  # 8
        hi_p, hi_r = q_add(p, Q_ONE), q_add(r, half)                       # 9
        assert q_compare(q_add(p, r), q_add(hi_p, hi_r)) == LT
        pos_p = q_add(q_abs(p), half)                                      # 10
        pos_s = q_add(q_abs(s), Q_ONE)
        assert q_compare(Q_ZERO, q_mul(pos_p, pos_s)) == LT
        if not p.is_zero:                                                  # inverses
            assert q_eq(q_mul(p, q_inv(p)), Q_ONE)
    _passed(4, f"field laws 1-10 plus inverses on {N_FIELD} random triples (q_eq)")


def test_criterion_5_discreteness_and_cyclicity():
    rng = random.Random(5)
    for _ in range(10_000):
        a, b = random_surinteger(rng), random_surinteger(rng)
        up = si_add(a, S_ONE)
        assert not (si_compare(a, b) == LT and si_compare(b, up) == LT)
    finite_checked = 0
    transfinite_checked = 0
    while transfinite_checked < 1_000:
        a = random_surinteger(rng)
        out = cyclic_decompose(a)
        if a.is_finite:
            sign, count = out
            rebuilt = SurInteger(count if sign == "+" else -count)
            assert rebuilt == a
            finite_checked += 1
        else:
            assert out is NOT_CYCLIC
            transfinite_checked += 1
    _passed(
        5,
        f"no gap between a and a+1 (10000 pairs); one-decomposition on "
        f"{finite_checked} finite, NotCyclic on {transfinite_checked} transfinite",
    )


def test_criterion_6_archimedean_dichotomy():
    rng = random.Random(6)
    bound = 10**6
    for _ in range(1_000):
        p = SurRational(0)
        while p.is_zero:
            p = SurRational(SurInteger(rng.randint(-200, 200)), SurInteger(rng.randint(1, 200)))
        value = SurRational(SurInteger(rng.randint(-(10**5), 10**5)), SurInteger(rng.randint(1, 200)))
        n = archimedean_witness(p, value, bound)
        assert n is not NO_WITNESS and 0 <= n <= bound
    assert archimedean_witness(Q_ONE, q("w/1"), bound) is NO_WITNESS
    for n in range(1, 21):
        for m in range(2, 21):
            lo = SurRational(n)
            mid = SurRational(SurInteger.from_ordinal(OMEGA), SurInteger(m))
            hi = q_sub(q("w/1"), SurRational(n))
            assert q_compare(lo, mid) == LT and q_compare(mid, hi) == LT
    _passed(6, "witness <= 1e6 on 1000 finite pairs; NoWitness at omega; n < w/m < w - n chain")


def test_criterion_7_density_and_gap():
    rng = random.Random(7)
    checked = 0
    while checked < 10_000:
        p, r = random_surrational(rng), random_surrational(rng)
        if q_compare(p, r) != LT:
            continue
        m = midpoint(p, r)
        assert q_compare(p, m) == LT and q_compare(m, r) == LT
        checked += 1
    eps = q("1/w")
    for _ in range(100):
        base = SurRational(SurInteger(rng.randint(-100, 100)), SurInteger(rng.randint(1, 100)))
        num = rng.randint(1, 50)
        den = rng.randint(num, 50 + num)
        r = SurRational(SurInteger(num), SurInteger(den))  # finite r in (0, 1]
        inside = q_add(base, r)
        top = q_add(base, eps)
        assert not (q_compare(base, inside) == LT and q_compare(inside, top) == LT)
    _passed(7, "midpoint strictly between on 10000 pairs; the 1/w gap admits no finite rational")


def test_criterion_8_oracle_equivalence():
    checked = {"add": 0, "mul": 0, "pow": 0}
    skipped = {"add": 0, "mul": 0, "pow": 0}
    cases = list(itertools.product(range(7), repeat=4))
    for xa, xb, ya, yb in cases:
        x, y = SmallOrdinal(xa, xb), SmallOrdinal(ya, yb)
        for name, defop, op in (
            ("add", def_rec_add, rec_add),
            ("mul", def_rec_mul, rec_mul),
            ("pow", def_rec_pow, rec_pow),
        ):
            try:
                ref = defop(x, y)
            except FragmentExceeded:
                skipped[name] += 1
                continue
            assert op(x.to_ordinal(), y.to_ordinal()) == ref.to_ordinal(), (name, x, y)
            checked[name] += 1
    # the limit identities the closed form must reproduce
    assert rec_pow(TWO, OMEGA) == OMEGA
    for n in range(7):
        for k in range(5):
            assert rec_pow(Ordinal(n), Ordinal(k)) == Ordinal(n**k)
    _passed(
        8,
        "definitional recursion agrees exhaustively on the degree-1 fragment: "
        + ", ".join(f"{k}={checked[k]} checked/{skipped[k]} beyond" for k in checked),
    )


def test_criterion_9_base_expansion_round_trip():
    rng = random.Random(9)
    bases = [Ordinal(2), Ordinal(10), OMEGA, o("w + 1")]
    per_base = 1_000
    for base in bases:
        done = 0
        while done < per_base:
            a = random_ordinal(rng)
            if a.is_zero:
                continue
            exp = base_expand(a, base)
            assert exp.recompose() == a
            for e, d in exp.digits:
                assert compare(ZERO, d) == LT and compare(d, base) == LT
            done += 1
    for _ in range(per_base):
        a = random_ordinal(rng)
        if a.is_zero:
            continue
        exp = base_expand(a, OMEGA)
        assert tuple((e, int(d)) for e, d in exp.digits) == a.terms
    _passed(9, f"recomposition identity at bases 2, 10, w, w+1 ({per_base} ordinals each)")


def test_criterion_10_cut_predicates():
    sqrt2 = RootCut(SurRational(2), 2, OMEGA)
    for a in range(-50, 51):
        for b in range(1, 51):
            p = SurRational(SurInteger(a), SurInteger(b))
            assert cut_member(sqrt2, p) == (a * a < 2 * b * b)
    ww = o("w^w")
    sqrt_w = RootCut(q("w/1"), 2, ww)
    rng = random.Random(10)
    for _ in range(200):
        p = SurRational(SurInteger(rng.randint(-(10**6), 10**6)), SurInteger(rng.randint(1, 10**4)))
        assert cut_member(sqrt_w, p)
    assert not cut_member(sqrt_w, q("w/1"))
    out = classify_root_cut(RootCut(q("w^2/1"), 2, ww))
    assert out.kind == "surrational" and q_eq(out.witness, q("w/1"))
    assert classify_root_cut(RootCut(SurRational(2), 2, ww)).kind == "irrational"
    _passed(10, "sqrt(2) decided against integer arithmetic on |a|,b <= 50; sqrt(w) cuts classified")


def test_criterion_11_gaussian_formulas():
    i = GaussianSurRational(Q_ZERO, Q_ONE)
    sq = cx_mul(i, i)
    assert q_eq(sq.re, q_neg(Q_ONE)) and q_eq(sq.im, Q_ZERO)
    rng = random.Random(11)
    checked = 0
    while checked < 1_000:
        a = random_gaussian(rng)
        if q_eq(a.re, Q_ZERO) and q_eq(a.im, Q_ZERO):
            continue
        assert cx_eq(cx_mul(a, cx_inv(a)), CX_ONE)
        checked += 1
    _passed(11, "i^2 = -1; inverse law on 1000 random nonzero values")


def test_criterion_12_parser_round_trip_and_fuzz():
    rng = random.Random(12)
    gens = [random_ordinal, random_surinteger, random_surrational, random_gaussian]
    for k in range(10_000):
        v = gens[k % 4](rng)
        text = print_canonical(v)
        assert value_equal(evaluate(parse(text)), v), text
    alphabet = "wH[]()+-*/^,.%@0123456789 "
    diagnostics = 0
    for _ in range(10_000):
        chars = [rng.choice(alphabet) for _ in range(rng.randrange(1, 40))]
        chars.insert(rng.randrange(len(chars) + 1), "%")  # never lexes
        expr, diag = try_parse("".join(chars))
        assert expr is None and diag is not None
        assert diag.line >= 1 and diag.col >= 1
        diagnostics += 1
    _passed(12, f"10000 value round-trips; {diagnostics} malformed inputs all diagnosed")
