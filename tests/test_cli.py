"""Command-line front end: eval, batch records, and the REPL loop."""

import io
import json

import pytest

from transfinita import (
    GaussianSurRational,
    Ordinal,
    OrdinalClass,
    RootClassification,
    SurInteger,
    SurRational,
)
from transfinita.cli import main
from transfinita.oracle import SmallOrdinal
from transfinita.parser import MAX_NESTING
from transfinita.errors import Undefined
from transfinita.expr import CutHandle, EvalError, evaluate
from transfinita.parser import parse
from transfinita.printer import value_tree


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    @pytest.mark.parametrize("source", ["complex(1)", "complex()", "complex(1, 2, 3)"])
    def test_complex_arity(self, capsys, source):
        code, out, _ = run(capsys, "--json", "eval", source)
        assert code == 1
        assert json.loads(out)["error"] == {
            "kind": "Undefined",
            "operation": "complex",
            "message": "complex takes a real part and an imaginary part",
            "line": 1,
            "col": 1,
        }

    def test_canonical_output(self, capsys):
        code, out, _ = run(capsys, "eval", "1 +. w")
        assert code == 0 and out.strip() == "w"

    def test_json_record(self, capsys):
        code, out, _ = run(capsys, "--json", "eval", "w +. 1")
        rec = json.loads(out)
        assert code == 0
        assert rec["schema"] == "1"
        assert rec["canonical"] == "w + 1"
        assert rec["value"]["type"] == "ordinal"

    def test_error_exit(self, capsys):
        code, _, err = run(capsys, "eval", "w ^^ w")
        assert code == 1 and "NotRepresentable" in err

    def test_parse_error_json(self, capsys):
        code, out, _ = run(capsys, "--json", "eval", "1 +")
        rec = json.loads(out)
        assert code == 1 and rec["error"]["kind"] == "parse"

    def test_cut_json_record(self, capsys):
        code, out, _ = run(capsys, "--json", "eval", "sqrt[3](2/w)")
        rec = json.loads(out)
        assert code == 0 and rec["canonical"] == "sqrt[3](2 / w)"
        assert rec["value"]["type"] == "cut" and rec["value"]["n"] == "3"
        radicand = rec["value"]["radicand"]
        assert radicand["num"]["terms"][0]["coeff"] == "2"
        assert radicand["den"]["terms"][0]["exp"] == {"terms": [{"exp": {"terms": []}, "coeff": "1"}]}

    def test_eval_error_json_has_span(self, capsys):
        code, out, _ = run(capsys, "--json", "eval", "1 + (w -. 2)")
        err = json.loads(out)["error"]
        assert code == 1
        assert (err["kind"], err["operation"], err["line"], err["col"]) == ("Undefined", "-.", 1, 8)

    def test_eval_error_without_span(self, monkeypatch, capsys):
        def fail(*args):
            raise EvalError(Undefined("no position"), "op", None)

        monkeypatch.setattr("transfinita.cli._eval_line", fail)
        code, out, _ = run(capsys, "--json", "eval", "x")
        err = json.loads(out)["error"]
        assert code == 1 and err["line"] is None and err["col"] is None

    def test_huge_root_does_not_overflow(self, capsys):
        code, out, _ = run(capsys, "--json", "eval", "classify(sqrt[2](10^400))")
        rec = json.loads(out)
        assert code == 0 and rec["canonical"] == f"Surrational({10**200})"

    def test_magnitude_flag(self, capsys):
        code, _, err = run(capsys, "--max-magnitude", "10", "eval", "H[4](3,3)")
        assert code == 1 and "ResourceExceeded" in err

    def test_oracle_flag_quiet_on_agreement(self, capsys):
        code, out, err = run(capsys, "--oracle", "eval", "(w + 1) +. (w*2 + 3)")
        assert code == 0 and out.strip() == "w*3 + 3"
        assert "mismatch" not in err

    @pytest.mark.parametrize("source,name,operands", [
        ("(w + 1) +. (w*2 + 3)", "def_rec_add", (SmallOrdinal(1, 1), SmallOrdinal(2, 3))),
        ("(w + 1) *. 3", "def_rec_mul", (SmallOrdinal(1, 1), SmallOrdinal(0, 3))),
    ])
    def test_oracle_mismatch_is_a_warning(self, monkeypatch, capsys, source, name, operands):
        seen = []

        def wrong(x, y):
            seen.append((x, y))
            return SmallOrdinal(0, 7)

        monkeypatch.setattr(f"transfinita.cli.{name}", wrong)
        code, out, _ = run(capsys, "--json", "--oracle", "eval", source)
        rec = json.loads(out)
        assert code == 0 and "value" in rec
        # both operands, in order, from the code before the top operation
        assert seen == [operands]
        assert rec["warning"].startswith("oracle mismatch: closed form gave ")
        assert rec["warning"].endswith(f"definitional recursion {SmallOrdinal(0, 7)}")


class TestBatch:
    def test_records_and_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.txt"
        good.write_text("1 +. w\nH[4](2,4)\n\nw*2 + w\n")
        code, out, _ = run(capsys, "batch", str(good))
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 0
        assert [r["canonical"] for r in lines] == ["w", "65536", "w*3"]
        assert all(r["schema"] == "1" for r in lines)

    def test_error_line_flips_exit_code(self, tmp_path, capsys):
        mixed = tmp_path / "mixed.txt"
        mixed.write_text("1 + 1\nnot % valid\n")
        code, out, _ = run(capsys, "batch", str(mixed))
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 1
        assert "value" in lines[0] and "error" in lines[1]

    def test_internal_error_does_not_end_the_run(self, tmp_path, capsys):
        # w ^^ 249 overflows the interpreter stack in the ordinal walkers
        deep = tmp_path / "deep.txt"
        deep.write_text("w ^^ 249\n1 + 1\n")
        code, out, _ = run(capsys, "batch", str(deep))
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 1 and len(lines) == 2
        assert lines[0]["error"]["kind"] == "internal" and "value" not in lines[0]
        assert lines[0]["error"]["message"].startswith("RecursionError")
        assert lines[1]["canonical"] == "2"

    def batch(self, tmp_path, capsys, *sources):
        path = tmp_path / "lines.txt"
        path.write_text("".join(line + "\n" for line in sources))
        _, out, err = run(capsys, "batch", str(path))
        assert err == ""
        return [json.loads(line) for line in out.strip().splitlines()]

    def test_nesting_depth(self, tmp_path, capsys):
        # the records the per-character tokenizer and its parser gave
        exceeded = "finite power needs a number with more than 10^16384 digits"
        recs = self.batch(
            tmp_path, capsys,
            "(" * 150 + "w + 1" + ")" * 150, "-" * 150 + "w", "2^" * 100 + "2",
        )
        assert [r.get("canonical") for r in recs] == ["w + 1", "w", None]
        assert [r["value"]["type"] for r in recs[:2]] == ["ordinal", "surinteger"]
        assert recs[2]["error"] == {
            "kind": "ResourceExceeded",
            "operation": "^",
            "message": f"{exceeded}, budget is 10^5-ish (100000)",
            "line": 1,
            "col": 192,
        }

    def test_nesting_past_the_limit_is_a_parse_error(self, tmp_path, capsys):
        # nested deeper than the interpreter stack allows: a parse error, not a RecursionError
        recs = self.batch(
            tmp_path, capsys,
            "(" * 300 + "w + 1" + ")" * 300, "-" * 1000 + "w", "2^" * 1000 + "2",
        )
        message = f"expression nested too deeply (more than {MAX_NESTING} levels)"
        # the token that opens level MAX_NESTING + 1
        cols = [MAX_NESTING + 1, MAX_NESTING + 1, 2 * MAX_NESTING + 1]
        assert [r["error"] for r in recs] == [
            {"kind": "parse", "message": message, "line": 1, "col": col, "expected": []}
            for col in cols
        ]

    def test_long_flat_sum(self, tmp_path, capsys):
        # more operations than the interpreter stack has frames
        (rec,) = self.batch(tmp_path, capsys, "+".join(["1"] * 50_000))
        assert rec["canonical"] == "50000"

    def test_over_long_literal_is_a_parse_error(self, tmp_path, capsys):
        (rec,) = self.batch(tmp_path, capsys, "1" * 2_000_001 + " + 1")
        assert rec["error"] == {
            "kind": "parse",
            "message": "number literal is too long (2000001 digits)",
            "line": 1,
            "col": 1,
            "expected": [],
        }

    def test_large_finite_hyper_indices(self, tmp_path, capsys):
        recs = self.batch(tmp_path, capsys, "H[500](2, 2)", "H[1000](2, 3)", "H[5](2, 3)")
        assert [r.get("canonical") for r in recs] == ["4", None, "65536"]
        assert recs[1]["error"] == {
            "kind": "ResourceExceeded",
            "operation": "H",
            "message": "finite power needs a number with more than 10^16384 digits, "
            "budget is 10^5-ish (100000)",
            "line": 1,
            "col": 1,
        }


    def test_root_cut_powers_are_budgeted(self, tmp_path, capsys):
        # the first line used to run on with no budget
        recs = self.batch(
            tmp_path, capsys,
            "member(sqrt[100000000](2), 3/2)", "member(sqrt[100000](2), 3/2)",
        )
        assert recs[0]["error"] == {
            "kind": "ResourceExceeded",
            "operation": "member",
            "message": "finite power needs a number with more than 10^6 digits, "
            "budget is 10^5-ish (100000)",
            "line": 1,
            "col": 1,
        }
        assert recs[1]["canonical"] == "false"

    def test_large_index_with_a_transfinite_base(self, tmp_path, capsys):
        # was an internal RecursionError: the index unfolded one call per level
        (rec,) = self.batch(tmp_path, capsys, "H[500](w, 2)")
        assert rec["error"] == {
            "kind": "NotRepresentable",
            "operation": "H",
            "message": "the supremum exceeds the notation boundary",
            "line": 1,
            "col": 1,
        }


VALUE_KINDS = [
    ("w + 1", Ordinal, "ordinal", "ordinal"),
    ("-w", SurInteger, "surinteger", "surinteger"),
    ("1/w", SurRational, "surrational", "surrational"),
    ("(1, 2)", GaussianSurRational, "gaussian", "gaussian"),
    ("member(sqrt[2](4), 1)", bool, "boolean", "bool"),
    ("classify(w)", OrdinalClass, "classification", "classification"),
    ("classify(sqrt[2](4))", RootClassification, "classification", "root-classification"),
    ("sqrt[2](2)", CutHandle, "cut", "cut"),
]


@pytest.mark.parametrize("text,cls,word,tag", VALUE_KINDS)
def test_type_word_and_tree_tag(monkeypatch, capsys, text, cls, word, tag):
    v = evaluate(parse(text))
    assert type(v) is cls and value_tree(v)["type"] == tag
    feed = iter([f":type {text}", ":quit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
    assert main(["repl"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == word


class TestRepl:
    def _run_repl(self, monkeypatch, capsys, lines):
        feed = io.StringIO("".join(line + "\n" for line in lines))
        monkeypatch.setattr("builtins.input", lambda prompt="": next(feed_iter))
        feed_iter = iter(feed.getvalue().splitlines())
        code = main(["repl"])
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_session(self, monkeypatch, capsys):
        code, out, err = self._run_repl(
            monkeypatch,
            capsys,
            [
                ":let x = w*2 + 1",
                "x + 1",
                ":type 1/w",
                ":lambda w^w",
                "member(sqrt[2](w), 10/3)",
                ":oracle on",
                "1 +. w",
                ":quit",
            ],
        )
        assert code == 0
        assert "x = w*2 + 1" in out
        assert "w*2 + 2" in out
        assert "surrational" in out
        assert "ambient lambda = w^w" in out
        assert "true" in out
        assert "mismatch" not in err

    def test_errors_do_not_kill_the_loop(self, monkeypatch, capsys):
        code, out, err = self._run_repl(
            monkeypatch, capsys, ["1 % 2", "w ^^ w", "2 + 2", ":quit"]
        )
        assert code == 0
        assert "parse error" in err and "NotRepresentable" in err
        assert "4" in out

    def test_oracle_mismatch_is_a_warning(self, monkeypatch, capsys):
        monkeypatch.setattr("transfinita.cli.def_rec_add", lambda x, y: SmallOrdinal(0, 7))
        code, out, err = self._run_repl(
            monkeypatch, capsys, [":oracle on", "1 +. w", ":oracle off", "2 +. w", ":quit"]
        )
        assert code == 0 and out.splitlines()[-4:] == [
            "oracle cross-check on", "w", "oracle cross-check off", "w",
        ]
        assert err.count("warning: oracle mismatch") == 1

    def test_defects_do_not_kill_the_loop(self, monkeypatch, capsys):
        # past the recursion ceiling: an internal error, not the end of the session
        code, out, err = self._run_repl(monkeypatch, capsys, ["w ^^ 249", "1 + 1", ":quit"])
        assert code == 0
        assert "error: internal: RecursionError" in err
        assert out.splitlines()[-1] == "2"

    def test_eof_ends_session(self, monkeypatch, capsys):
        def raise_eof(prompt=""):
            raise EOFError

        monkeypatch.setattr("builtins.input", raise_eof)
        assert main(["repl"]) == 0
