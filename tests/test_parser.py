"""Expression grammar, evaluation dispatch, canonical printing, JSON trees."""

import random
import re
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
from transfinita import expr as tower
from transfinita.cuts import CX_ONE, CX_ZERO, GaussianSurRational, RootClassification
from transfinita.expr import CutHandle, evaluate
from transfinita.hyper import EvalContext, tetration
from transfinita.natural import nat_add, nat_mul
from transfinita.ordinal import MAX_DEPTH, OrdinalClass, _finite, validate
from transfinita.ordinal import _depth as nesting_depth
from transfinita.ordinal import _make as _make_ordinal
from transfinita.parser import MAX_NESTING, _positions, tokenize
from transfinita.surinteger import _make as _make_si, si_mul
from transfinita.surrational import Q_ZERO, SurRational

import reference_tree
from conftest import o, ordinals, output_in_child, q, seconds_in_child, si
from random_values import random_gaussian, random_ordinal, random_surinteger, random_surrational


def terms_from_tree(tree: dict) -> tuple:
    """Inverse of the ``terms`` tree in ``value_tree``: the term sequence of
    an ordinal or of a surinteger."""
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
        # ending in the * that multiplies a^(b^2) by 3 (names do not fold)
        assert ops(parse("a^(b^2)*3 + 5")) == [
            ("var", "a"), ("var", "b"), ("const", Ordinal(2)),
            ("op", "^"), ("op", "^"), ("const", Ordinal(3)), ("op", "*"),
            ("const", Ordinal(5)), ("op", "+"),
        ]

    def test_normal_form_folds_to_one_const(self):
        # natural + and *, and powers of w, fold; the const keeps the span
        # of its leftmost operand
        assert parse("w^(w^2)*3 + 5") == [("const", (1, 1), o("w^(w^2)*3 + 5"))]
        assert parse("(2 + 3) * w") == [("const", (1, 2), o("w*5"))]
        assert parse("-w^2") == [("const", (1, 2), o("w^2")), ("neg", (1, 1), None)]

    @pytest.mark.parametrize("source, last", [
        ("2 +. 3", ("op", "+.")), ("2 *. 3", ("op", "*.")), ("2 -. 3", ("op", "-.")),
        ("2 - 3", ("op", "-")), ("2 / 3", ("op", "/")), ("2 ^ 3", ("op", "^")),
        ("(w + 1) ^ 2", ("op", "^")), ("w ^^ 2", ("op", "^^")), ("-3", ("neg", None)),
        ("H[4](2, 2)", ("H", None)), ("classify(w)", ("call", ("classify", 1))),
        ("(1, 2)", ("call", ("complex", 2))), ("x + 1", ("op", "+")),
    ])
    def test_what_does_not_fold(self, source, last):
        # the oracle reads +. and *. from the last instruction; the others
        # can raise, leave the ordinals, read the digit budget or a binding
        assert ops(parse(source))[-1] == last

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

    def test_printed_ordinals_parse_to_one_const(self):
        rng = random.Random(13)
        for _ in range(300):
            v = random_ordinal(rng, depth=3)
            code = parse(print_canonical(v))
            assert ops(code) == [("const", v)] and type(code[0][2]) is Ordinal


def _split(z, mask):
    """Two ordinals from z's terms: those whose index is a set bit of mask,
    and the rest.  A mask 2^j - 1 picks the first j terms, which lie above
    the rest; other masks interleave the two."""
    picked = [mask >> i & 1 for i in range(len(z))]
    return (
        _make_ordinal(tuple(t for t, p in zip(z, picked) if p)),
        _make_ordinal(tuple(t for t, p in zip(z, picked) if not p)),
    )


_SUMMANDS = st.one_of(
    st.builds(_split, ordinals(max_terms=6), st.integers(0, 63)),
    st.tuples(ordinals(), ordinals()),
)


class TestFolds:
    """The parser's shortcuts for constant operands against the natural
    operations they stand for."""

    @given(ordinals(), st.one_of(st.integers(0, 12), st.integers(0, 10**30)))
    def test_scaling_by_a_finite_is_the_natural_product(self, x, k):
        ((tag, _, v),) = parse(f"({print_canonical(x)}) * {k}")
        assert tag == "const" and type(v) is Ordinal
        assert v == nat_mul(x, Ordinal(k))

    @given(_SUMMANDS)
    def test_ordered_sums_are_natural_sums(self, xy):
        for x, y in (xy, xy[::-1]):
            ((tag, _, v),) = parse(f"({print_canonical(x)}) + ({print_canonical(y)})")
            assert tag == "const" and type(v) is Ordinal
            assert v == nat_add(x, y)
            validate(v)


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

    @pytest.mark.parametrize(
        "source, col",
        [("3.5", 2), ("w . 2", 3), ("w +.. 1", 5), ("w^.2", 3), (".w", 1), ("(w+1) *.. 2", 9), ("w\n.2", 1)],
    )
    def test_a_stray_dot_is_unexpected(self, source, col):
        # only the "." of "+.", "-." and "*." is part of a token
        with pytest.raises(ParseError) as err:
            parse(source)
        d = err.value.diagnostic
        assert (d.message, d.line, d.col) == ("unexpected character '.'", source.count("\n") + 1, col)


def _kind(text):
    if not text:
        return "end"
    if text[0].isdecimal():
        return "num"
    return "ident" if text[0].isalpha() or text[0] == "_" else "op"


def _lexed_here(source):
    """The package's tokens as the reference gives them: ``(kind, text,
    line, col)``, the offsets turned into lines and columns by the parser's
    own conversion."""
    tokens = tokenize(source)
    at = _positions(source, tokens.starts)
    return [(_kind(t), t, *at[i]) for t, i in zip(tokens, tokens.starts, strict=True)]


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
        want = _lexed(reference_tree.tokenize, source)
        assert _lexed(_lexed_here, source) == want
        if isinstance(want, list):  # the count the bench's trace reads
            assert len(tokenize(source)) == len(want)

    def test_blanks_are_what_str_isspace_says(self):
        # the pattern skips "\s" after a token, and tokenize strips the
        # source's leading blanks and each match's trailing ones with the
        # argument-free str.lstrip and str.rstrip: all three must agree
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        spaces = {c for c in every if c.isspace()}
        assert set(re.findall(r"\s", every)) == spaces
        assert {c for c in every if not c.strip()} == spaces
        assert not re.findall(r"\w", "".join(spaces))  # no name ends in a blank

    def test_literals_come_from_the_finite_table(self):
        (_, _, five), _, (_, _, zero) = parse("5 + x * 0")[:3]
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


# Each form nested n levels deep, as the parser counts unary operands.
NESTED = {
    "parentheses": lambda n: "(" * (n - 1) + "w + 1" + ")" * (n - 1),
    "arguments": lambda n: "classify(" * (n - 1) + "w" + ")" * (n - 1),
    "brackets": lambda n: "sqrt[" * (n - 1) + "2" + "](2)" * (n - 1),
    "complex": lambda n: "(" * (n - 1) + "1" + ", 1)" * (n - 1),
    "minus": lambda n: "-" * (n - 1) + "w",
    "powers": lambda n: "2^" * (n - 1) + "2",
}


# The forms that parse_expr's loop keeps on its own stack; argument lists and
# brackets recurse through parse_atom, two frames a level.
LOOPED = ("parentheses", "complex", "minus", "powers")


# Wrappers that put a phrase under k openers of each kind, so that the "("
# that starts it is read k levels deep.
REPEATED_UNDER = {
    "parentheses": lambda k, p: "(" * k + p + ")" * k,
    "arguments": lambda k, p: "classify(" * k + p + ")" * k,
    "brackets": lambda k, p: "sqrt[" * k + p + "](2)" * k,
    "minus": lambda k, p: "-" * k + p,
    "powers": lambda k, p: "2^" * k + p,
}


class TestNesting:
    @pytest.mark.parametrize("form", NESTED)
    def test_limit_costs_no_frames_but_two_an_argument_list(self, form):
        frames = 20 if form in LOOPED else 2 * MAX_NESTING + 20
        within(frames, parse, NESTED[form](MAX_NESTING))
        with pytest.raises(ParseError) as err:
            parse(NESTED[form](MAX_NESTING + 1))
        assert err.value.diagnostic.message == (
            f"expression nested too deeply (more than {MAX_NESTING} levels)"
        )

    @pytest.mark.parametrize("form", NESTED)
    def test_every_argument_has_the_same_allowance(self, form):
        # "f(" opens one level; the names, calls and eps0 before the last
        # argument close theirs, so it may still nest MAX_NESTING - 1 deep
        head = "f(x, eps0, g(x), h[x](y), "
        parse(head + NESTED[form](MAX_NESTING - 1) + ")")
        with pytest.raises(ParseError, match="nested too deeply"):
            parse(head + NESTED[form](MAX_NESTING) + ")")

    @pytest.mark.parametrize("form", REPEATED_UNDER)
    def test_a_repeat_keeps_the_nesting_limit(self, form):
        # a phrase first read one level deep and repeated under k openers:
        # at k = MAX_NESTING - 1 the repeat is refused at the token after its
        # "(", with the diagnostic of the same line whose first phrase
        # differs; one level shallower it parses, read from the table
        phrase, other = "(x + x + x + x + x)", "(y + y + y + y + y)"
        k = MAX_NESTING - 1
        line = f"{phrase} + {REPEATED_UNDER[form](k, phrase)}"
        with pytest.raises(ParseError) as err:
            parse(line)
        with pytest.raises(ParseError) as plain:
            parse(line.replace(phrase, other, 1))
        assert err.value.diagnostic == plain.value.diagnostic
        assert (err.value.diagnostic.line, err.value.diagnostic.col) == (1, line.rindex(phrase) + 2)
        assert "nested too deeply" in err.value.diagnostic.message
        code = parse(f"{phrase} + {REPEATED_UNDER[form](k - 1, phrase)}")
        assert [tag for tag, _, _ in code].count("load") == 1

    def test_a_flat_call_opens_one_level(self):
        assert len(parse("f(" + ", ".join(["x"] * MAX_NESTING) + ")")) == MAX_NESTING + 1
        assert len(parse("f(" + ", ".join(["eps0"] * MAX_NESTING) + ")")) == MAX_NESTING + 1

    def test_evaluation_costs_no_frames_a_level(self):
        deep = parse(NESTED["parentheses"](MAX_NESTING))
        assert within(20, evaluate, deep) == o("w + 1")
        minus = parse(NESTED["minus"](MAX_NESTING))  # 199 minus signs
        assert value_equal(within(20, evaluate, minus), si("-w"))
        with pytest.raises(EvalError):  # classify(classify(w)) is not an ordinal
            within(20, evaluate, parse(NESTED["arguments"](MAX_NESTING)))

    def test_long_flat_sum_costs_no_frames(self):
        code = parse(" + ".join(["x"] * 20_000))
        assert len(code) == 39_999
        assert within(20, evaluate, code, {"x": Ordinal(1)}) == Ordinal(20_000)
        assert ops(parse(" + ".join(["1"] * 20_000))) == [("const", Ordinal(20_000))]

    def test_omega_tower_folds_within_the_depth_bound(self):
        # the tallest parseable w^w^...^w is one const, MAX_NESTING deep
        code = within(20, parse, "w^" * (MAX_NESTING - 1) + "w")
        assert len(code) == 1 and code[0][0] == "const"
        assert nesting_depth(code[0][2]) == MAX_NESTING <= MAX_DEPTH
        assert code[0][2] == tetration(OMEGA, Ordinal(MAX_NESTING))


# Lines from the grammar, shallow enough for the recursive reference.  H and
# the right operand of ^^ take leaves only, and ^/^^ bracket their left
# operand (but for w ^ sub), so no line asks for a supremum that does not
# finish (2^^(w^2)).  Normal forms, which the parser folds to one const, are
# leaves too, so folded operands meet every operation that can fail.
_LEAF = st.sampled_from(["0", "1", "2", "3", "12", "w", "x", "y", "eps0"])
_NORMAL_FORM = st.sampled_from([
    "w^2*3 + 5", "w*2", "w^w", "w^(w^2)*3 + w + 1", "(w + 2)*w", "1 + w^(w + 1)*2",
])
_BIN = ["+", "-", "*", "/", "+.", "-.", "*."]


def _grow(sub):
    two = st.tuples(sub, sub)
    return st.one_of(
        st.tuples(sub, st.sampled_from(_BIN), sub).map(" ".join),
        two.map(lambda ab: f"({ab[0]}) ^ {ab[1]}"),
        sub.map(lambda a: f"w ^ {a}"),
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


_LINES = st.recursive(_LEAF | _NORMAL_FORM, _grow, max_leaves=16)


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
    @example("w^2*3 + 5 -. x")
    @example("w ^ w^(w^2)*3 + w + 1 - 1 / 0")
    @example("w ^ -w*2 + 1")
    @example("w^2\n  + 1 / 0")  # spans past line 1
    @example("1 +\r\n $")
    @example("x\u2028+\n y")  # U+2028 is a blank, not a line break
    def test_same_value_or_error(self, source):
        assert _outcome(parse, evaluate, source) == _outcome(
            reference_tree.parse, reference_tree.evaluate, source
        )


# Lines that write one parenthesised phrase more than once, as the cut lines
# write x^n as x * x * ... * x.  Each phrase is 16 characters or more and 8
# tokens or more, so the parser's phrase table keeps its first copy; the
# phrase is constant, not constant, a complex literal, or raises.
_PHRASES = st.one_of(
    _NORMAL_FORM.map(lambda s: f"({s} + 1 + 2 + 3)"),
    _LINES.map(lambda s: f"(({s}) + x + 0 + 0)"),
    _LINES.map(lambda s: f"(({s}) * 2 + 1 + 1)"),
    st.tuples(_LINES, _LINES).map(lambda ab: f"(({ab[0]}), {ab[1]} + 1 + 2 + 3)"),
    st.sampled_from(["(1 / 0 + x + 1 + 1)", "(x -. 1 + 2 + 3 + 4)", "(eps0 + 1 + 2 + 3)"]),
)
_REPEATS = st.builds(
    str.format,
    st.sampled_from([
        "{p} + {p}",
        "{p} -. ({p} +. {q})",
        "({p} + {p}) * ({p} + {p})",  # a phrase whose own code loads, repeated
        "member(sqrt[2]({p} * {p}), {p} + ({q}))",
        "frob({p}, {q}, {p})",
        "complex({p}, {p})",
        "sqrt[{p}]({p})",
        "({p}, {p})",
        "-{p} * -({p})",
        "({q}) ^ {p} ^ -{p}",
        "w ^ {p} + {p}",
    ]),
    p=_PHRASES,
    q=_LINES,
)
_CUT_LINE = (
    "member(sqrt[2](((w^2*9 + 6) / (w*3 - 1)) * ((w^2*9 + 6) / (w*3 - 1))), "
    "((w^2*9 + 6) / (w*3 - 1)) + (((w^2*9 + 6) / (w*3 - 1)) / (w + 2)))"
)


def _loads_after_saves(code) -> int:
    """The number of loads in ``code``, each checked to follow a save of its
    phrase."""
    saved, loads = set(), 0
    for tag, _, arg in code:
        if tag == "save":
            saved.add(arg)
        elif tag == "load":
            assert arg in saved
            loads += 1
    return loads


class TestRepeatedPhrases:
    @settings(max_examples=300)
    @given(_REPEATS)
    @example("(w*3 - w + 1 - 1) +. (w*3 - w + 1 - 1)")
    @example("(w^9*4 + w^4 + 3) -. ((w^9*4 + w^4 + 3) +. (w^8*7 + 1))")
    @example("(1 / 0 + x + 1 + 1) * (1 / 0 + x + 1 + 1)")  # the first copy raises
    @example(_CUT_LINE)
    @example("frob((x + x + x + x + x), (x + x + x + x + x))")
    @example("sqrt[(w + 1 + 1 + 1 + 1)]((w + 1 + 1 + 1 + 1))")
    @example("((x, 1 + 2 + 3 + 4)) * ((x, 1 + 2 + 3 + 4))")
    @example("-(x + x + x + x + x) * -(x + x + x + x + x)")
    @example("2 ^ (w + 1 + 1 + 1 + 1) ^ -(w + 1 + 1 + 1 + 1)")
    def test_same_value_or_error_as_the_tree(self, source):
        assert _outcome(parse, evaluate, source) == _outcome(
            reference_tree.parse, reference_tree.evaluate, source
        )

    @given(_REPEATS)
    def test_every_load_reads_an_earlier_save(self, source):
        _loads_after_saves(parse(source))

    def test_a_repeat_is_read_once(self):
        # a phrase that does not fold is saved after its first copy and
        # loaded for each repeat; a constant one is the same value object
        code = parse("(w*3 - w + 1 - 1) +. (w*3 - w + 1 - 1)")
        assert [tag for tag, _, _ in code][-4:] == ["op", "save", "load", "op"]
        assert _loads_after_saves(code) == 1
        assert _loads_after_saves(parse(_CUT_LINE)) == 3
        code = parse("(w^9*4 + w^4 + 3) -. ((w^9*4 + w^4 + 3) +. w)")
        assert [tag for tag, _, _ in code] == ["const", "const", "const", "op", "op"]
        assert code[0][2] is code[1][2]

    def test_no_phrase_outlives_its_line(self):
        # the phrase of the line before is not read: the second line's
        # first copy is read in full, its code is what a fresh interpreter
        # makes of it, and the modules' tables are as they were
        def tables():
            return {
                name: repr(value)
                for module in (tower, sys.modules["transfinita.parser"])
                for name, value in vars(module).items()
                if isinstance(value, (dict, list, set))
            }

        first = "(w*3 - w + 1 - x) + (w*3 - w + 1 - x)"
        second = "2 * (w*3 - w + 1 - x) - (w*3 - w + 1 - x)"
        before = tables()
        assert _loads_after_saves(parse(first)) == 1
        evaluate(parse(first), {"x": Ordinal(1)})
        code = parse(second)
        assert _loads_after_saves(code) == 1
        assert output_in_child(f"print(repr(parse({second!r})))").strip() == repr(code)
        assert tables() == before

    def test_shared_heads_and_deep_repeats_cost_linear_time(self):
        # 4,500 distinct phrases with one head (110,000 characters) are each
        # compared with the first one only, and each level of a phrase
        # nested 190 deep is compared once.  Read without a phrase table,
        # they parse in about 0.09 s and 0.6 ms on one Intel Xeon core.
        shared = 'parse(" + ".join(f"(x + x + x + x + {i})" for i in range(4500)))'
        assert seconds_in_child(shared) < 0.3
        deep = 'deep = "(" * 190 + "x + 1" + ")" * 190\nparse(deep + " + " + deep)'
        assert seconds_in_child(deep) < 0.01


def _seeded(gen):
    return st.integers(0, 2**32 - 1).map(lambda seed: gen(random.Random(seed)))


_SURINTEGERS = _seeded(random_ordinal).map(lambda a: reference_tree.promote(a, 1)) | _seeded(
    random_surinteger
)
# fractions whose denominator divides the numerator, and pairs whose
# imaginary part is zero: the values that lower a level
_DIVIDING = st.tuples(_SURINTEGERS, _SURINTEGERS.filter(bool)).map(
    lambda ab: SurRational(si_mul(ab[0], ab[1]), ab[1])
)
_REAL_PAIRS = st.tuples(_seeded(random_surrational) | _DIVIDING, st.integers(1, 3)).map(
    lambda rk: GaussianSurRational(rk[0], SurRational(0, rk[1]))
)
_TOWER_VALUES = st.one_of(
    _seeded(random_ordinal),
    _seeded(random_surinteger),
    _seeded(random_surrational),
    _seeded(random_gaussian),
    _DIVIDING,
    _REAL_PAIRS,
    st.sampled_from([
        True,
        OrdinalClass.LIMIT,
        RootClassification("irrational"),
        RootClassification("surrational", SurRational(1, 2)),
        CutHandle(SurRational(2), 2),
    ]),
)
_W_PLUS_ONE = SurRational(si("w^2 - 1"), si("w - 1"))


def _tower_outcome(fn, *args):
    try:
        v = fn(*args)
    except Exception as err:  # a defect too: it must be the same one
        return "raise", type(err).__name__, str(err)
    if isinstance(v, bool):
        return "value", v
    return "value", type(v), value_tree(v)


class TestTowerAgainstLadder:
    """``expr``'s tower tables against the type ladders they replaced, kept
    in ``reference_tree``: the same value, or the same error and message."""

    @settings(max_examples=400)
    @given(_TOWER_VALUES, _TOWER_VALUES)
    @example(SurRational(1, 2), SurRational(0, 3))  # division by a zero fraction
    @example(CX_ONE, CX_ZERO)  # division by (0, 0)
    @example(_W_PLUS_ONE, SurRational(si("w - 1")))
    @example(SurRational(si("w"), si("w - 1")), Ordinal(2))  # does not divide
    @example(GaussianSurRational(_W_PLUS_ONE, Q_ZERO), GaussianSurRational(SurRational(-1), Q_ZERO))
    def test_same_value_or_error(self, x, y):
        for name in ("as_ordinal", "as_surrational"):
            got = _tower_outcome(getattr(tower, name), x)
            assert got == _tower_outcome(getattr(reference_tree, name), x), name
        for level in range(4):
            got = _tower_outcome(tower.promote, x, level)
            assert got == _tower_outcome(reference_tree.promote, x, level), level
        got = _tower_outcome(tower.value_equal, x, y)
        assert got == _tower_outcome(reference_tree.value_equal, x, y)
        for op in "+*-/":
            got = _tower_outcome(tower._binop, op, x, y, _CTX)
            assert got == _tower_outcome(reference_tree._binop, op, x, y, _CTX), op

    def test_lowering_examples(self):
        assert tower.as_ordinal(_W_PLUS_ONE) == o("w + 1")
        assert tower.as_ordinal(GaussianSurRational(_W_PLUS_ONE, Q_ZERO)) == o("w + 1")
        with pytest.raises(Undefined, match=r"^SurInteger\[-1\] is not an ordinal$"):
            tower.as_ordinal(GaussianSurRational(SurRational(-1), Q_ZERO))
        with pytest.raises(Undefined, match="is not an ordinal"):
            tower.as_ordinal(SurRational(si("w"), si("w - 1")))


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
        t = value_tree(o("w^2*3 + 1"))
        assert t["terms"][0]["coeff"] == "3"
        assert _make_ordinal(terms_from_tree(t)) == o("w^2*3 + 1")

    def test_surrational_tree_round_trip(self):
        p = q("(w*3 - 2) / (w^2 + 1)")
        t = value_tree(p)
        num, den = (_make_si(terms_from_tree(t[k])) for k in ("num", "den"))
        assert SurRational(num, den) == p
        assert t["reduced"] is False  # a constant member, kept for schema "1"

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
