"""The gcd in the surinteger ring and Henrici's sum of fractions.

``si_gcd`` is exact on polynomials in w, where sympy (tests only) is the
reference; on any other pair it is the shared content and monomial.
``q_add`` keeps sums of fractions in lowest terms when its summands are.
"""

import pytest
import sympy
import hypothesis.strategies as st
from hypothesis import assume, given

from transfinita import EvalError, SurInteger, SurRational, Undefined, evaluate, parse
from transfinita import print_canonical, q_add, q_eq, si_add, si_mul
from transfinita.ordinal import Ordinal
from transfinita.surinteger import S_ONE, S_ZERO, _make, _shared, neg, si_gcd
from transfinita.surrational import Q_ZERO, _light_reduce, exact_divide
from transfinita.errors import NOT_DIVISIBLE

from conftest import q, seconds_in_child, si, surintegers, surrationals

X = sympy.Symbol("x")


def _poly(d: dict) -> SurInteger:
    return _make(tuple((Ordinal(k), d[k]) for k in sorted(d, reverse=True) if d[k]))


def dense(max_degree: int = 5, max_coeff: int = 30):
    """Nonzero polynomials in w of low degree, dense enough to share factors."""
    coeff = st.integers(-max_coeff, max_coeff)
    return st.dictionaries(st.integers(0, max_degree), coeff, min_size=1, max_size=max_degree + 1).map(
        _poly
    ).filter(lambda a: not a.is_zero)


def to_sympy(a: SurInteger) -> sympy.Poly:
    return sympy.Poly(sum(c * X ** (e[0][1] if e else 0) for e, c in a.terms), X, domain="ZZ")


def _up_to_sign(x: SurInteger, y: SurInteger) -> bool:
    return x == y or x == neg(y)


def _check_gcd(a: SurInteger, b: SurInteger):
    g, ca, cb = si_gcd(a, b)
    assert g.terms[0][1] > 0
    assert si_mul(g, ca) == a and si_mul(g, cb) == b
    return g


class TestGcd:
    def test_a_zero_operand_is_undefined(self):
        # a typed error, not the IndexError of reading a zero's last term
        for a, b in ((S_ZERO, S_ONE), (S_ONE, S_ZERO), (S_ZERO, S_ZERO), (S_ZERO, si("w + 1"))):
            with pytest.raises(Undefined):
                si_gcd(a, b)

    @given(dense(), dense(), dense())
    def test_a_common_factor_comes_out_whole(self, a, b, c):
        g = _check_gcd(si_mul(a, c), si_mul(b, c))
        assert _up_to_sign(g, si_mul(_check_gcd(a, b), c))

    @given(dense(), dense(), dense(3, 5))
    def test_agrees_with_sympy(self, a, b, c):
        a, b = si_mul(a, c), si_mul(b, c)
        g = _check_gcd(a, b)
        assert to_sympy(g) in (sympy.gcd(to_sympy(a), to_sympy(b)), -sympy.gcd(to_sympy(a), to_sympy(b)))

    @pytest.mark.parametrize(
        "a,b,g",
        [
            ("w^2 - 1", "w^2 + w*2 + 1", "w + 1"),
            ("(w + 1)*(w + 2)", "(w + 2)*(w + 3)", "w + 2"),
            ("w^3*6 + w^2*6", "w^2*4 - w*4", "w*2"),
            ("w^2*2 - 2", "w*4 - 4", "w*2 - 2"),
            ("w + 1", "w + 2", "1"),
            ("-(w + 1)", "-(w + 1)*(w - 5)", "w + 1"),
            ("6", "w*4 + 2", "2"),
            ("1", "1", "1"),
            # at the first xi, 34, a's value 35 divides b's, but a not b
            ("w*2 - 33", "w + 1", "1"),
            # at xi = 34 the candidate w + 1 comes with the cofactor w*9 + 9,
            # and the bound 2*9 + 16 = 34 is not below xi: the product check
            # runs and refuses it
            ("w^2*10 - w*16 + 9", "w + 1", "1"),
            # the cofactor w + 15 gives the bound 2*15 + 16 = 46: the product
            # check runs and accepts
            ("(w + 1)*(w + 15)", "w + 1", "w + 1"),
        ],
    )
    def test_examples(self, a, b, g):
        assert _check_gcd(si(a), si(b)) == si(g)

    def test_transfinite_pairs_share_content_and_monomial_only(self):
        # x = w^w is a second variable: the common factor w^w + 1 stays
        # inside the cofactors, only the content and the power of w come out
        a, b = si("(w^w + 1)*(w^3*2 + w*4)"), si("(w^w + 1)*w*6")
        assert _check_gcd(a, b) == si("w*2")

    def test_a_sparse_pair_of_high_degree_keeps_the_cheap_gcd(self):
        # w^1000000 - 1 divides w^2000000 - 1, but their values at any xi
        # would take millions of bits, so only content and monomial count
        # (timed in a child first: without the guard this call runs for minutes)
        code = (
            "from transfinita.surinteger import si_gcd\n"
            "si_gcd(*(evaluate(parse(t)) for t in ('w^2000000*3 - 3', 'w^1000001*3 - w*3')))"
        )
        assert seconds_in_child(code) < 1
        assert _check_gcd(si("w^2000000*3 - 3"), si("w^1000001*3 - w*3")) == SurInteger(3)


def _lowest(a: SurInteger, b: SurInteger) -> SurRational:
    """a/b in lowest terms, reduced by sympy."""
    g = _make(tuple((Ordinal(k), int(c)) for (k,), c in sympy.gcd(to_sympy(a), to_sympy(b)).terms()))
    qa, qb = sympy.div(to_sympy(a), to_sympy(g)), sympy.div(to_sympy(b), to_sympy(g))
    back = [_make(tuple((Ordinal(k), int(c)) for (k,), c in p[0].terms() if c)) for p in (qa, qb)]
    return SurRational(back[0], back[1])


def _schoolbook(p: SurRational, r: SurRational) -> SurRational:
    return SurRational(si_add(si_mul(p.num, r.den), si_mul(r.num, p.den)), si_mul(p.den, r.den))


class TestHenriciSum:
    @given(surrationals(2, 3, 9), surrationals(2, 3, 9))
    def test_value_is_the_schoolbook_sum(self, p, r):
        assert q_eq(q_add(p, r), _schoolbook(p, r))

    @given(dense(), dense(), dense(), dense(), dense(2, 9))
    def test_sums_in_lowest_terms_stay_there(self, a, b, c, d, shared):
        p, r = _lowest(a, si_mul(b, shared)), _lowest(c, si_mul(d, shared))
        s = q_add(p, r)
        assert q_eq(s, _schoolbook(p, r))
        if not s.num.is_zero:
            assert sympy.gcd(to_sympy(s.num), to_sympy(s.den)).is_one
        else:
            assert s == Q_ZERO

    @given(surrationals(2, 3, 9), surrationals(2, 3, 9))
    def test_sums_keep_no_shared_content_or_monomial(self, p, r):
        # what every quotient of the expression language starts with
        p, r = _light_reduce(p.num, p.den), _light_reduce(r.num, r.den)
        s = q_add(p, r)
        assume(not s.num.is_zero)
        assert _shared(s.num, s.den)[0] == S_ONE

    def test_a_summand_not_in_lowest_terms_passes_its_content_on(self):
        s = q_add(SurRational(2, 4), SurRational(1, 3))
        assert (s.num, s.den) == (SurInteger(10), SurInteger(12))
        assert q_eq(s, SurRational(5, 6))

    def test_zero_sum(self):
        assert q_add(q("1/(w + 1)"), q("-1/(w + 1)")) == Q_ZERO

    def test_forty_term_telescoping_sum(self):
        text = " + ".join(f"1/((w + {k})*(w + {k + 1}))" for k in range(40))
        assert print_canonical(evaluate(parse(text))) == "40 / (w^2 + w*40)"

    def test_a_gaussian_sum_reduces_both_parts(self):
        z = evaluate(parse("complex(1/(w + 1), 1/(w^2 - 1)) + complex(1/(w - 1), 1/(w + 1))"))
        assert print_canonical(z) == "(w*2 / (w^2 - 1), w / (w^2 - 1))"

    def test_transfinite_sums_print_as_before(self):
        # no exact gcd over the second variable w^w: the same text as the
        # shared-content-and-monomial reduction gave
        s = evaluate(parse("1/(w^w + 1) + 1/(w^w + 2)"))
        assert print_canonical(s) == "(w^w*2 + 3) / (w^(w*2) + w^w*3 + 2)"

    def test_sparse_high_degree_denominators_end_promptly(self):
        text = "(1 / (w^1000000 + 1)) + (1 / (w^999999 + w))"
        assert seconds_in_child(f"evaluate(parse({text!r}))") < 1
        assert print_canonical(evaluate(parse(text))) == (
            "(w^1000000 + w^999999 + w + 1) / (w^1999999 + w^1000001 + w^999999 + w)"
        )


class TestDivisionPretest:
    def test_a_long_division_that_cannot_end_is_refused_at_once(self):
        # the last terms allow a quotient, so long division would emit a
        # million terms before the remainder shows; w = 5 refuses it
        text = "(w^1000000 + 1) / (w - 1) +. 1"
        assert seconds_in_child(f"try:\n    evaluate(parse({text!r}))\nexcept EvalError:\n    pass") < 1
        with pytest.raises(EvalError) as err:
            evaluate(parse(text))
        assert isinstance(err.value.origin, Undefined)
        assert exact_divide(si("w^1000000 + 1"), si("w - 1")) is NOT_DIVISIBLE

    @given(dense(8, 10**6), dense(4, 10**6).filter(lambda b: len(b.terms) > 1))
    def test_never_refuses_a_product(self, a, b):
        assert exact_divide(si_mul(a, b), b) == a

    @given(surintegers(2, 4, 20), surintegers(2, 4, 20))
    def test_quotients_multiply_back(self, a, b):
        assume(not b.is_zero)
        c = exact_divide(a, b)
        assert c is NOT_DIVISIBLE or si_mul(b, c) == a
        assert exact_divide(si_mul(a, b), b) == a
