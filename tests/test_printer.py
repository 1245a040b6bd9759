"""The printer's one walk against the recursive printers it replaced, at
the depth bound too, and the batch record text against ``cli._record``."""

import json
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given

from transfinita import (
    GaussianSurRational,
    Ordinal,
    OrdinalClass,
    ResourceExceeded,
    RootClassification,
    SurInteger,
    SurRational,
    evaluate,
    parse,
)
from transfinita import cli
from transfinita.expr import DEFAULT_AMBIENT, CutHandle, EvalError
from transfinita.errors import Undefined
from transfinita.hyper import EvalContext
from transfinita.ordinal import MAX_DEPTH, OMEGA, ONE, _depth
from transfinita.ordinal import _make as _make_ordinal
from transfinita.oracle import SmallOrdinal
from transfinita.printer import encode, print_canonical, value_tree
from transfinita.surinteger import S_ONE
from transfinita.surinteger import _make as _make_si

from conftest import ordinals, surintegers, surrationals


# ---------------------------------------------------------------- reference
# The tree encoders and text printers as they were before the one walk:
# plain recursion, no sharing.


def ref_ordinal_tree(terms) -> dict:
    return {"terms": [{"exp": ref_ordinal_tree(e), "coeff": str(c)} for e, c in terms]}


def ref_surrational_tree(p) -> dict:
    return {
        "num": ref_ordinal_tree(p.num.terms),
        "den": ref_ordinal_tree(p.den.terms),
        "reduced": False,
    }


def ref_ordinal_str(a) -> str:
    if not a:
        return "0"
    return " + ".join(ref_term_str(e, c) for e, c in a)


def ref_term_str(e, c) -> str:
    if not e:
        return str(c)
    if e == ONE:
        body = "w"
    elif e.is_finite:
        body = f"w^{int(e)}"
    elif e == OMEGA:
        body = "w^w"
    else:
        body = f"w^({ref_ordinal_str(e)})"
    return body if c == 1 else f"{body}*{c}"


def ref_surinteger_str(a) -> str:
    if not a.terms:
        return "0"
    parts = []
    for i, (e, c) in enumerate(a.terms):
        body = ref_term_str(e, abs(c))
        if i == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def ref_surrational_str(p) -> str:
    num_s = ref_surinteger_str(p.num)
    if p.den == S_ONE:
        return num_s
    if len(p.num.terms) > 1:
        num_s = f"({num_s})"
    den_s = ref_surinteger_str(p.den)
    e, c = p.den.terms[0]
    if len(p.den.terms) > 1 or (e and c != 1):
        den_s = f"({den_s})"
    return f"{num_s} / {den_s}"


def _ref_root_str(v) -> str:
    if v.kind == "surrational":
        return f"Surrational({ref_surrational_str(v.witness)})"
    return v.kind.capitalize()


def _ref_root_tree(v) -> dict:
    if v.witness is None:
        return {"kind": v.kind}
    return {"kind": v.kind, "witness": ref_surrational_tree(v.witness)}


REF_TYPES = {
    bool: ("bool", lambda v: "true" if v else "false", lambda v: {"value": v}),
    Ordinal: ("ordinal", ref_ordinal_str, ref_ordinal_tree),
    SurInteger: ("surinteger", ref_surinteger_str, lambda v: ref_ordinal_tree(v.terms)),
    SurRational: ("surrational", ref_surrational_str, ref_surrational_tree),
    GaussianSurRational: (
        "gaussian",
        lambda v: f"({ref_surrational_str(v.re)}, {ref_surrational_str(v.im)})",
        lambda v: {"re": ref_surrational_tree(v.re), "im": ref_surrational_tree(v.im)},
    ),
    OrdinalClass: ("classification", lambda v: v.value.capitalize(), lambda v: {"value": v.value}),
    RootClassification: ("root-classification", _ref_root_str, _ref_root_tree),
    CutHandle: (
        "cut",
        lambda v: f"sqrt[{v.n}]({ref_surrational_str(v.q)})",
        lambda v: {"n": str(v.n), "radicand": ref_surrational_tree(v.q)},
    ),
}


def reference(v) -> tuple:
    """``(JSON text, canonical text)`` as the recursive printers gave them."""
    tag, text, tree = REF_TYPES[type(v)]
    return json.dumps({"type": tag, **tree(v)}), text(v)


def assert_as_reference(v):
    assert encode(v) == reference(v)


# ------------------------------------------------------------- the one walk


def _si(pairs) -> SurInteger:
    return _make_si(tuple(pairs))


def _monomial(e, c) -> SurInteger:
    return _si([(e, c)])


class TestWalkAgainstReference:
    @given(ordinals(depth=3, max_terms=4))
    def test_ordinals(self, a):
        assert_as_reference(a)

    @given(ordinals(depth=4, max_terms=2, max_coeff=2))
    def test_deep_ordinals_with_repeated_exponents(self, a):
        assert_as_reference(a)

    @given(surintegers(depth=3, max_terms=4))
    def test_signed_surintegers(self, a):
        assert_as_reference(a)

    @given(surrationals(depth=2, max_terms=3))
    def test_surrationals(self, p):
        assert_as_reference(p)

    @given(surintegers(depth=2, max_terms=3))
    def test_surrationals_over_one(self, a):
        assert_as_reference(SurRational(a, S_ONE))

    @given(surintegers(depth=2, max_terms=3), ordinals(depth=2), st.integers(1, 9))
    def test_surrationals_over_a_monomial(self, a, e, c):
        assert_as_reference(SurRational(a, _monomial(e, c)))

    @given(surrationals(depth=2, max_terms=3), surrationals(depth=2, max_terms=3))
    def test_gaussians(self, re, im):
        assert_as_reference(GaussianSurRational(re, im))

    @given(surrationals(depth=2, max_terms=3), st.integers(2, 10**30))
    def test_cuts(self, p, n):
        assert_as_reference(CutHandle(p, n))

    @given(surrationals(depth=2, max_terms=3))
    def test_root_classification_witness(self, p):
        assert_as_reference(RootClassification("surrational", p))

    @pytest.mark.parametrize("v", [
        True, False, *OrdinalClass,
        RootClassification("irrational"), RootClassification("inconclusive"),
    ])
    def test_flat_values(self, v):
        assert_as_reference(v)

    def test_coefficients_of_any_size(self):
        a = _si([(OMEGA, -(10**400)), (ONE, 1), (Ordinal(0), -1)])
        assert_as_reference(a)
        assert_as_reference(SurRational(_monomial(Ordinal(0), 7), a))

    def test_towers(self):
        # the reference takes 3 frames a level; the fixture restores the limit
        sys.setrecursionlimit(5000)
        tower = Ordinal(1)
        for k in range(1, 248):
            tower = _make_ordinal(((tower, 1),))  # w ^^ k
            assert_as_reference(tower)

    def test_entry_points_agree(self):
        v = evaluate(parse("(w^(w^2)*3 - w + 1) / (w^w + 2)"))
        js, text = encode(v)
        assert print_canonical(v) == text == ref_surrational_str(v)
        assert repr(v) == f"SurRational[{text}]"
        assert value_tree(v) == json.loads(js)

    def test_value_tree_shares_no_subtree(self):
        t = value_tree(evaluate(parse("w^(w + 1) + w^w + w + 1")))
        subtrees = []
        stack = [t]
        while stack:
            node = stack.pop()
            subtrees.append(node)
            stack.extend(term["exp"] for term in node["terms"])
        assert len({id(s) for s in subtrees}) == len(subtrees)

    def test_no_form_for_other_objects(self):
        with pytest.raises(Undefined):
            encode(1.5)


# ---------------------------------------------------------------- depth cap


def _tower(k: int) -> Ordinal:
    return evaluate(parse(f"w ^^ {k}"))


class TestDepthCap:
    def test_the_cap_is_the_tallest_printable_tower(self):
        for k in (249, MAX_DEPTH):
            v = _tower(k)
            assert _depth(v) == k
            js, text = encode(v)
            assert text.count("w") == k
            assert json.loads(js)["type"] == "ordinal"
        with pytest.raises(EvalError, match=f"more than {MAX_DEPTH} levels"):
            _tower(MAX_DEPTH + 1)

    @pytest.mark.parametrize("k", [MAX_DEPTH + 1, 490, 2000])
    def test_taller_is_a_typed_error(self, k):
        # refused where the tower is built, not where it would be printed
        with pytest.raises(EvalError) as info:
            _tower(k)
        err = info.value
        assert type(err.origin) is ResourceExceeded
        assert (err.operation, err.span) == ("^^", (1, 3))

    def test_two_frames_per_level_at_most(self):
        # the walk must fit in 2 frames a level above the caller's stack
        v = _tower(MAX_DEPTH)
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(len(_frames()) + 2 * MAX_DEPTH + 20)
        try:
            encode(v)
        finally:
            sys.setrecursionlimit(old)


def _frames() -> list:
    f, out = sys._getframe(), []
    while f is not None:
        out.append(f)
        f = f.f_back
    return out


# ------------------------------------------------------------ batch records


def _batch_lines(capsys, tmp_path, lines, *flags) -> list:
    path = tmp_path / "lines.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    cli.main([*flags, "batch", str(path)])
    return capsys.readouterr().out.splitlines()


def _record(line, oracle=False) -> dict:
    ctx = EvalContext(max_digits=cli.CLI_MAX_DIGITS)
    return cli._record(line, {}, ctx, DEFAULT_AMBIENT, oracle)


def _fail_without_span(*args):
    raise EvalError(Undefined("no position"), "op", None)


def _defect(*args):
    raise RuntimeError("a defect")


RECORD_KINDS = [
    ("value", ["w^(w^2 + 1)*3 + w + 1", "(w - 1) / (w^2 + 1)", "w² + 1", "classify(sqrt[2](4))"]),
    ("parse error", ["1 +", "not % valid"]),
    ("eval error with a span", ["1 + (w -. 2)", "H[1000](2, 3)"]),
    ("typed error", [f"w ^^ {MAX_DEPTH + 1}", "w ^^ 2000", "2^(w^^250)"]),
]


class TestRecordText:
    @pytest.mark.parametrize("kind,lines", RECORD_KINDS, ids=[k for k, _ in RECORD_KINDS])
    def test_record_dict_dumps_to_the_batch_line(self, capsys, tmp_path, kind, lines):
        out = _batch_lines(capsys, tmp_path, lines)
        assert out == [json.dumps(_record(line)) for line in lines]

    def test_oracle_warning(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr("transfinita.oracle.def_rec_add", lambda x, y: SmallOrdinal(0, 7))
        (out,) = _batch_lines(capsys, tmp_path, ["1 +. w"], "--oracle")
        rec = _record("1 +. w", oracle=True)
        assert "warning" in rec and out == json.dumps(rec)

    @pytest.mark.parametrize("fail,kind", [(_fail_without_span, "Undefined"), (_defect, "internal")])
    def test_errors_from_a_failing_stage(self, monkeypatch, capsys, tmp_path, fail, kind):
        monkeypatch.setattr("transfinita.cli._eval_line", fail)
        (out,) = _batch_lines(capsys, tmp_path, ["w"])
        rec = _record("w")
        assert rec["error"]["kind"] == kind and out == json.dumps(rec)

    def test_typed_error_record(self):
        # a tower past the depth bound was a record without operation or span
        assert _record("w ^^ 2000") == {
            "schema": "1",
            "input": "w ^^ 2000",
            "error": {
                "kind": "ResourceExceeded",
                "operation": "^^",
                "message": f"value nested too deeply (more than {MAX_DEPTH} levels)",
                "line": 1,
                "col": 3,
            },
        }

    def test_eval_json_prints_the_batch_text(self, capsys, tmp_path):
        for line in ["w^w*2 + 1", "1 +", "w ^^ 2000"]:
            (batch,) = _batch_lines(capsys, tmp_path, [line])
            cli.main(["--json", "eval", line])
            assert capsys.readouterr().out == batch + "\n"

    def test_one_write_per_record(self, monkeypatch, tmp_path):
        class Out:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

        out = Out()
        monkeypatch.setattr("sys.stdout", out)
        path = tmp_path / "lines.txt"
        path.write_text("w + 1\n1 +\n")
        assert cli.main(["batch", str(path)]) == 1
        assert len(out.writes) == 2 and all(w.endswith("}\n") for w in out.writes)
