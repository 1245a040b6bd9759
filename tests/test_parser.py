"""Expression grammar, evaluation dispatch, canonical printing, JSON trees."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from transfinita import (
    OMEGA,
    Diagnostic,
    DivisionByZero,
    EvalError,
    NotRepresentable,
    Ordinal,
    ParseError,
    Undefined,
    parse,
    print_canonical,
    try_parse,
    value_equal,
    value_tree,
)
from transfinita.expr import (
    BinOp,
    FuncApp,
    HyperApp,
    NatLiteral,
    Omega,
    UnaryNeg,
    Var,
    evaluate,
)
from transfinita.oracle import (
    random_gaussian,
    random_ordinal,
    random_surinteger,
    random_surrational,
)
from transfinita.ordinal import OrdinalClass
from transfinita.ordinal import _make as _make_ordinal
from transfinita.parser import tokenize
from transfinita.printer import ordinal_tree, surrational_tree
from transfinita.surinteger import _make as _make_si
from transfinita.surrational import SurRational

from conftest import o, q, si


def terms_from_tree(tree: dict) -> tuple:
    """Inverse of ``ordinal_tree``: the term sequence of an ordinal or of a
    surinteger."""
    return tuple(
        (_make_ordinal(terms_from_tree(t["exp"])), int(t["coeff"])) for t in tree["terms"]
    )


def ev(text):
    return evaluate(parse(text))


class TestGrammar:
    def test_precedence_tree(self):
        e = parse("w^(w^2)*3 + 5")
        assert isinstance(e, BinOp) and e.op == "+"
        assert isinstance(e.lhs, BinOp) and e.lhs.op == "*"
        assert isinstance(e.rhs, NatLiteral) and e.rhs.value == 5

    def test_dotted_operator(self):
        e = parse("1 +. w")
        assert isinstance(e, BinOp) and e.op == "+."
        assert isinstance(e.lhs, NatLiteral) and isinstance(e.rhs, Omega)

    def test_hyper_application(self):
        e = parse("H[4](3,3)")
        assert isinstance(e, HyperApp)
        assert e.index == NatLiteral(4)

    def test_power_is_right_associative(self):
        assert ev("2^2^3") == Ordinal(256)

    def test_unary_minus_binds_below_power(self):
        assert value_equal(ev("-w^2"), si("- (w^2)"))

    def test_bracketed_function(self):
        e = parse("sqrt[2](2)")
        assert isinstance(e, FuncApp) and e.name == "sqrt" and len(e.args) == 2

    def test_complex_literal(self):
        e = parse("(1/2, 3)")
        assert isinstance(e, FuncApp) and e.name == "complex"

    def test_unary_minus(self):
        e = parse("-3")
        assert isinstance(e, UnaryNeg)


class TestDiagnostics:
    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse("1 % 2")
        assert err.value.diagnostic.col == 3

    def test_missing_operand(self):
        _, diag = try_parse("1 + ")
        assert diag is not None and diag.expected

    def test_unbalanced_parens(self):
        _, diag = try_parse("(w + 1")
        assert diag is not None

    def test_trailing_tokens(self):
        _, diag = try_parse("1 2")
        assert diag is not None and "trailing" in diag.message

    def test_line_column_tracking(self):
        with pytest.raises(ParseError) as err:
            parse("1 +\n $")
        assert err.value.diagnostic.line == 2

    def test_wrong_hyper_arity(self):
        _, diag = try_parse("H[2](1)")
        assert diag is not None

    def test_superscript_digits_are_not_numbers(self):
        for source, col in (("²", 1), ("1+²", 3)):
            with pytest.raises(ParseError) as err:
                parse(source)
            d = err.value.diagnostic
            assert (d.message, d.line, d.col) == ("unexpected character '²'", 1, col)
        assert ev("٣+1") == Ordinal(4)  # other decimal scripts still count
        assert parse("x²") == Var("x²")


# The per-character tokenizer that the compiled pattern replaced, kept as the
# reference for its lexical rules: tokens as (kind, text, line, col).
def _ref_tokenize(source):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdecimal():
            j = i
            while j < n and source[j].isdecimal():
                j += 1
            tokens.append(("num", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        two = source[i : i + 2]
        if two in ("+.", "-.", "*.", "^^"):
            tokens.append(("op", two, line, start_col))
            i += 2
            col += 2
            continue
        if ch in "+-*/^()[],":
            tokens.append(("op", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(Diagnostic(f"unexpected character {ch!r}", line, col))
    tokens.append(("end", "", line, col))
    return tokens


def _lexed(tokenizer, source):
    try:
        return tokenizer(source)
    except ParseError as err:
        return err.diagnostic


_LEXEMES = list("0123456789wHeps_xz+-*/^()[],. \t\r\n\x1c\x85\u2028$%") + [
    "²", "٣", "١٢", "½", "Ⅻ", "é", "x²", "_1", "eps0", "sqrt", "+.", "-.", "*.", "^^",
]


class TestTokenizer:
    @settings(max_examples=1000)
    @given(st.lists(st.sampled_from(_LEXEMES), max_size=40).map("".join))
    @example("")
    @example("w^(w^2*3 + w) +. 1\n  -. ² x²")
    def test_matches_reference(self, source):
        assert _lexed(tokenize, source) == _lexed(_ref_tokenize, source)

    def test_over_long_literal_is_a_diagnostic(self):
        _, diag = try_parse("1" * 2_000_001 + " + 1")
        assert (diag.message, diag.line, diag.col) == (
            "number literal is too long (2000001 digits)", 1, 1
        )


class TestEvaluation:
    def test_recursive_vs_natural_addition(self):
        assert ev("1 +. w") == OMEGA
        assert ev("1 + w") == o("w + 1")

    def test_omega_indexed_hyperop(self):
        assert ev("H[w](3,3)") == OMEGA

    def test_left_subtraction_operator(self):
        assert ev("1 -. w") == OMEGA
        with pytest.raises(EvalError):
            ev("w -. 1")

    def test_tetration_operator(self):
        assert ev("2 ^^ 3") == Ordinal(16)

    def test_balanced_subtraction_promotes(self):
        assert value_equal(ev("2 - 3"), si("-1"))

    def test_fraction_operator(self):
        assert value_equal(ev("1/w"), q("1/w"))
        with pytest.raises(EvalError) as err:
            ev("1/0")
        assert isinstance(err.value.origin, DivisionByZero)

    def test_eps0_sentinel(self):
        with pytest.raises(EvalError) as err:
            ev("eps0")
        assert isinstance(err.value.origin, NotRepresentable)

    def test_recursive_ops_demand_ordinals(self):
        with pytest.raises(EvalError) as err:
            ev("(1/2) ^ 2")
        assert isinstance(err.value.origin, Undefined)

    def test_demotion_through_levels(self):
        # an integer-valued fraction is allowed back into ordinal arithmetic
        assert ev("(4/2) ^ w") == OMEGA

    def test_member_and_classify(self):
        assert ev("member(sqrt[2](2), 7/5, w)") is True
        assert ev("member(sqrt[2](2), 3/2, w)") is False
        assert ev("member(1/2, 1/w, w^w)") is True
        assert print_canonical(ev("classify(sqrt[2](w^2))")) == "Surrational(w)"
        assert ev("classify(w + 1)") is OrdinalClass.SUCCESSOR

    def test_unknown_function_and_name(self):
        with pytest.raises(EvalError):
            ev("frobnicate(1)")
        with pytest.raises(EvalError):
            ev("x + 1")

    def test_promotion_coherence(self):
        plain = ev("2 + 3")
        through_ring = ev("(2 - 0) + 3")
        through_field = ev("(2/1) + 3")
        assert value_equal(plain, through_ring)
        assert value_equal(plain, through_field)


class TestCanonicalPrinting:
    def test_collects_like_terms(self):
        assert print_canonical(ev("w*2 + w")) == "w*3"

    def test_zero(self):
        assert print_canonical(Ordinal(0)) == "0"

    def test_signed_products(self):
        assert print_canonical(ev("(w - 1) * (w + 1)")) == "w^2 - 1"

    def test_booleans_and_classifications(self):
        assert print_canonical(True) == "true"
        assert print_canonical(OrdinalClass.LIMIT) == "Limit"

    @pytest.mark.parametrize("kind", ["ordinal", "surinteger", "surrational", "gaussian"])
    def test_round_trip_sampled(self, kind):
        rng = random.Random(99)
        gen = {
            "ordinal": random_ordinal,
            "surinteger": random_surinteger,
            "surrational": random_surrational,
            "gaussian": random_gaussian,
        }[kind]
        for _ in range(300):
            v = gen(rng)
            assert value_equal(evaluate(parse(print_canonical(v))), v)


class TestJsonTrees:
    def test_ordinal_coefficients_are_strings(self):
        t = ordinal_tree(o("w^2*3 + 1"))
        assert t["terms"][0]["coeff"] == "3"
        assert _make_ordinal(terms_from_tree(t)) == o("w^2*3 + 1")

    def test_surrational_tree_round_trip(self):
        p = q("(w*3 - 2) / (w^2 + 1)")
        t = surrational_tree(p)
        num, den = (_make_si(terms_from_tree(t[k])) for k in ("num", "den"))
        assert SurRational(num, den, reduced=t["reduced"]) == p

    def test_value_tree_tags(self):
        assert value_tree(True) == {"type": "bool", "value": True}
        assert value_tree(o("w - 0"))["type"] == "ordinal"
        assert value_tree(si("-w"))["type"] == "surinteger"


class TestErrorTotality:
    def test_fuzzed_garbage_never_crashes(self):
        rng = random.Random(1234)
        alphabet = "wH[]()+-*/^,.0123456789 eps0member"
        for _ in range(800):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 30)))
            expr, diag = try_parse(text)
            if expr is None:
                assert diag is not None
                continue
            try:
                evaluate(expr)
            except EvalError:
                pass
