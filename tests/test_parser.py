"""Expression grammar, evaluation dispatch, canonical printing, JSON trees."""

import random
import sys

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
    ZERO,
    Undefined,
    parse,
    print_canonical,
    try_parse,
    value_equal,
    value_tree,
)
from transfinita.expr import evaluate
from transfinita.hyper import EvalContext
from transfinita.ordinal import OrdinalClass, _finite
from transfinita.ordinal import _make as _make_ordinal
from transfinita.parser import MAX_NESTING, tokenize
from transfinita.printer import ordinal_tree, surrational_tree
from transfinita.surinteger import _make as _make_si
from transfinita.surrational import SurRational

import reference_tree
from conftest import o, q, si
from random_values import random_gaussian, random_ordinal, random_surinteger, random_surrational


def terms_from_tree(tree: dict) -> tuple:
    """Inverse of ``ordinal_tree``: the term sequence of an ordinal or of a
    surinteger."""
    return tuple(
        (_make_ordinal(terms_from_tree(t["exp"])), int(t["coeff"])) for t in tree["terms"]
    )


def ev(text):
    return evaluate(parse(text))


def ops(code) -> list:
    """The postfix code without spans: ``(tag, arg)`` per instruction."""
    return [(tag, arg) for tag, _, arg in code]


class TestGrammar:
    def test_precedence_tree(self):
        # + last, its right operand the lone 5 before it, its left one
        # ending in the * that multiplies w^(w^2) by 3
        assert ops(parse("w^(w^2)*3 + 5")) == [
            ("const", OMEGA), ("const", OMEGA), ("const", Ordinal(2)),
            ("op", "^"), ("op", "^"), ("const", Ordinal(3)), ("op", "*"),
            ("const", Ordinal(5)), ("op", "+"),
        ]

    def test_dotted_operator(self):
        assert parse("1 +. w") == [
            ("const", (1, 1), Ordinal(1)), ("const", (1, 6), OMEGA), ("op", (1, 3), "+."),
        ]

    def test_hyper_application(self):
        # the index is the first operand, the operation carries the H's span
        assert parse("H[4](3,3)") == [
            ("const", (1, 3), Ordinal(4)), ("const", (1, 6), Ordinal(3)),
            ("const", (1, 8), Ordinal(3)), ("H", (1, 1), None),
        ]

    def test_power_is_right_associative(self):
        assert ev("2^2^3") == Ordinal(256)

    def test_unary_minus_binds_below_power(self):
        assert value_equal(ev("-w^2"), si("- (w^2)"))

    def test_bracketed_function(self):
        # the bracket is the first of the two arguments
        assert ops(parse("sqrt[2](2)")) == [
            ("const", Ordinal(2)), ("const", Ordinal(2)), ("call", ("sqrt", 2)),
        ]

    def test_complex_literal(self):
        assert parse("(1/2, 3)")[-1] == ("call", (1, 1), ("complex", 2))
        assert ops(parse("(1/2, 3)"))[:4] == [
            ("const", Ordinal(1)), ("const", Ordinal(2)), ("op", "/"), ("const", Ordinal(3)),
        ]

    def test_unary_minus(self):
        assert parse("-3") == [("const", (1, 2), Ordinal(3)), ("neg", (1, 1), None)]


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
        assert parse("x²") == [("var", (1, 1), "x²")]


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

    def test_literals_come_from_the_finite_table(self):
        (_, _, five), (_, _, zero) = parse("5 + 0")[:2]
        assert five is _finite(5) and type(five) is Ordinal and five == Ordinal(5)
        assert zero == ZERO and type(zero) is Ordinal

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


def _depth() -> int:
    f, n = sys._getframe(), 0
    while f is not None:
        n, f = n + 1, f.f_back
    return n


def within(frames, fn, *args):
    """``fn(*args)`` with room for about ``frames`` more Python frames."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + frames)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(old)


# Each form nested n levels deep, as parse_unary counts them.
NESTED = {
    "parentheses": lambda n: "(" * (n - 1) + "w + 1" + ")" * (n - 1),
    "arguments": lambda n: "classify(" * (n - 1) + "w" + ")" * (n - 1),
    "brackets": lambda n: "sqrt[" * (n - 1) + "2" + "](2)" * (n - 1),
    "complex": lambda n: "(" * (n - 1) + "1" + ", 1)" * (n - 1),
    "minus": lambda n: "-" * (n - 1) + "w",
    "powers": lambda n: "2^" * (n - 1) + "2",
}


class TestNesting:
    @pytest.mark.parametrize("form", NESTED)
    def test_limit_costs_at_most_four_frames_a_level(self, form):
        within(4 * MAX_NESTING + 20, parse, NESTED[form](MAX_NESTING))
        with pytest.raises(ParseError) as err:
            parse(NESTED[form](MAX_NESTING + 1))
        assert err.value.diagnostic.message == (
            f"expression nested too deeply (more than {MAX_NESTING} levels)"
        )

    def test_evaluation_costs_no_frames_a_level(self):
        deep = parse(NESTED["parentheses"](MAX_NESTING))
        assert within(20, evaluate, deep) == o("w + 1")
        minus = parse(NESTED["minus"](MAX_NESTING))  # 199 minus signs
        assert value_equal(within(20, evaluate, minus), si("-w"))
        with pytest.raises(EvalError):  # classify(classify(w)) is not an ordinal
            within(20, evaluate, parse(NESTED["arguments"](MAX_NESTING)))

    def test_long_flat_sum_costs_no_frames(self):
        code = parse(" + ".join(["1"] * 20_000))
        assert len(code) == 39_999
        assert within(20, evaluate, code) == Ordinal(20_000)


# Lines from the grammar, shallow enough for the recursive reference.  H and
# the right operand of ^^ take leaves only, and ^/^^ bracket their left
# operand, so no line asks for a supremum that does not finish (2^^(w^2)).
_LEAF = st.sampled_from(["0", "1", "2", "3", "12", "w", "x", "y", "eps0"])
_BIN = ["+", "-", "*", "/", "+.", "-.", "*."]


def _grow(sub):
    two = st.tuples(sub, sub)
    return st.one_of(
        st.tuples(sub, st.sampled_from(_BIN), sub).map(" ".join),
        two.map(lambda ab: f"({ab[0]}) ^ {ab[1]}"),
        st.tuples(sub, _LEAF).map(lambda ab: f"({ab[0]}) ^^ {ab[1]}"),
        sub.map(lambda a: f"-{a}"),
        sub.map(lambda a: f"({a})"),
        two.map(lambda ab: f"({ab[0]}, {ab[1]})"),
        st.tuples(_LEAF, _LEAF, _LEAF).map(lambda t: "H[{}]({}, {})".format(*t)),
        st.tuples(st.sampled_from(["1", "2", "3", "w", "1/2"]), sub).map(
            lambda ab: f"sqrt[{ab[0]}]({ab[1]})"
        ),
        st.tuples(st.sampled_from(["member", "classify", "complex", "frob"]),
                  st.lists(sub, max_size=3)).map(lambda fa: f"{fa[0]}({', '.join(fa[1])})"),
    )


_LINES = st.recursive(_LEAF, _grow, max_leaves=16)


def _break(line, how, k):
    """A malformed line: a token too many, a cut-off line or a wrong arity."""
    if how == 0:
        return f"{line} {')+(,]%2'[k % 7]}"
    if how == 1:
        return line[:k]
    return f"H[2]({line})"


_BROKEN = st.builds(_break, _LINES, st.integers(0, 2), st.integers(0, 40))
_CTX = EvalContext(max_digits=1000)


def _outcome(parse_fn, evaluate_fn, source):
    env = {"x": q("1/w")}
    try:
        v = evaluate_fn(parse_fn(source), env, _CTX)
    except ParseError as err:
        return "parse", err.diagnostic
    except EvalError as err:
        return "eval", type(err.origin).__name__, err.operation, err.span, str(err.origin)
    except Exception as err:  # a defect: it must be the same one
        return "defect", type(err).__name__, str(err)
    return "value", type(v), print_canonical(v), value_tree(v)


class TestPostfixAgainstTree:
    @settings(max_examples=600)
    @given(st.one_of(_LINES, _BROKEN))
    @example("H[2](1)")
    @example("complex(1)")
    @example("(1, 2, 3)")
    @example("x² + x")
    @example("member(sqrt[2](2), 7/5, w) +. 1")
    @example("classify(sqrt[2](w^2)) * 2")
    def test_same_value_or_error(self, source):
        assert _outcome(parse, evaluate, source) == _outcome(
            reference_tree.parse, reference_tree.evaluate, source
        )


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
