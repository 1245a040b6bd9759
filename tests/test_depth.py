"""The depth bound ``ordinal.MAX_DEPTH``: only powers nest deeper than their
operands, values near the bound end in a value or a typed error with a span,
and ``H[4]`` checks its depth once with the answer of a fold of ``rec_pow``."""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from transfinita import cli
from transfinita.errors import ResourceExceeded
from transfinita.expr import DEFAULT_AMBIENT
from transfinita.hyper import EvalContext, hyperop
from transfinita.natural import nat_add, nat_mul
from transfinita.ordinal import MAX_DEPTH, OMEGA, Ordinal, _depth, rec_add, rec_mul, rec_pow
from transfinita.printer import print_canonical

from conftest import ordinals

_CTX = EvalContext(max_digits=cli.CLI_MAX_DIGITS)


def _recursive_depth(a: Ordinal) -> int:
    return max((1 + _recursive_depth(e) for e, _ in a if e), default=0)


_TRANSFINITE = ordinals(depth=2).filter(lambda a: not a.is_finite)


class TestWhereDepthGrows:
    @given(ordinals(depth=4))
    def test_depth_is_the_leading_chain(self, a):
        assert _depth(a) == _recursive_depth(a)

    @given(ordinals(depth=3), ordinals(depth=3))
    def test_only_powers_nest_deeper_than_their_operands(self, a, b):
        deeper = max(_depth(a), _depth(b))
        for op in (rec_add, rec_mul, nat_add, nat_mul):
            assert _depth(op(a, b)) <= deeper
        assert _depth(rec_pow(a, b)) <= max(_depth(a), _depth(b) + 1)


def _heights(a: Ordinal):
    # k for which a ^^ k nests within a few levels of the bound either side
    return st.integers(-3, 3).map(lambda d: max(2, MAX_DEPTH + 1 - _depth(a) + d))


@st.composite
def _towers(draw):
    a = draw(_TRANSFINITE)
    return f"({print_canonical(a)})^^{draw(_heights(a))}"


_FORMS = [
    "{x} + {y}", "{x} +. {y}", "{x} * {y}", "{x} *. {y}", "{x} - {y}", "{x} -. {y}",
    "{x} / {y}", "{x} ^ {y}", "{x} ^ 2", "2 ^ {x}", "classify({x})", "({x}, {y})",
    "({x}, 1) * (1, {y})", "{x} + {x}",
]


class TestNearTheBound:
    @settings(max_examples=80)
    @given(_towers(), _towers(), st.sampled_from(_FORMS))
    @example("(w)^^250", "(w)^^250", "{x} +. {y}")
    @example("(w)^^500", "(w)^^500", "{x} +. {y}")
    @example("(w)^^249", "(w + 1)^^250", "2 ^ {x}")
    def test_a_value_or_a_typed_error(self, x, y, form):
        line = form.format(x=x, y=y)
        rec = cli._record(line, {}, _CTX, DEFAULT_AMBIENT, False)
        if "error" in rec:
            err = rec["error"]
            assert err["kind"] != "internal", err
            assert err["operation"] and (err["line"], err["col"]) != (None, None)
        else:
            assert rec["canonical"]

    @given(st.one_of(_TRANSFINITE, st.just(OMEGA)).flatmap(
        lambda a: st.tuples(st.just(a), st.one_of(st.integers(2, 12), _heights(a)))
    ))
    def test_tower_is_a_fold_of_rec_pow(self, ak):
        a, k = ak
        v = a
        try:
            for _ in range(k - 1):
                v = rec_pow(a, v)
        except ResourceExceeded:
            assert _depth(a) + k - 1 > MAX_DEPTH
            with pytest.raises(ResourceExceeded, match=f"more than {MAX_DEPTH} levels"):
                hyperop(4, a, Ordinal(k))
        else:
            assert _depth(v) == _depth(a) + k - 1 <= MAX_DEPTH
            assert hyperop(4, a, Ordinal(k)) == v
