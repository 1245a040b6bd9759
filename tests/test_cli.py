"""Command-line front end: eval, batch records, and the REPL loop."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

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
from transfinita.ordinal import MAX_DEPTH
from transfinita.parser import MAX_NESTING
from transfinita.errors import Undefined
from transfinita.expr import CutHandle, EvalError, evaluate
from transfinita.parser import parse
from transfinita.printer import encode, print_canonical, value_tree


def _failing_on(bad, fn):
    """``fn``, except that it raises RuntimeError, a defect, on ``bad``."""

    def failing(v):
        if type(v) is type(bad) and v == bad:
            raise RuntimeError("printer defect")
        return fn(v)

    return failing


def _tree_depth(tree: dict) -> int:
    # the leading-exponent chain of an ordinal's JSON tree
    d = 0
    while tree["terms"] and tree["terms"][0]["exp"]["terms"]:
        tree, d = tree["terms"][0]["exp"], d + 1
    return d


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

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_magnitude_below_one_is_a_usage_error(self, capsys, budget):
        with pytest.raises(SystemExit) as done:
            main(["--max-magnitude", budget, "eval", "2^2"])
        out = capsys.readouterr()
        assert done.value.code == 2 and out.out == ""
        assert out.err.startswith("usage: transfinita")
        assert f"error: argument --max-magnitude: must be at least 1, got {budget}\n" in out.err

    def test_magnitude_of_one_digit(self, capsys):
        assert run(capsys, "--max-magnitude", "1", "eval", "3^2") == (0, "9\n", "")
        code, _, err = run(capsys, "--max-magnitude", "1", "eval", "3^3")
        assert code == 1 and "ResourceExceeded" in err

    def test_oracle_flag_quiet_on_agreement(self, capsys):
        code, out, err = run(capsys, "--oracle", "eval", "(w + 1) +. (w*2 + 3)")
        assert code == 0 and out.strip() == "w*3 + 3"
        assert "mismatch" not in err

    def test_oracle_checks_a_repeated_operand(self, capsys):
        # the right operand is loaded from the left one's save, and the
        # record is the one its evaluation read twice gave: no warning
        source = "(w*3 - w + 1 - 1) +. (w*3 - w + 1 - 1)"
        code, out, _ = run(capsys, "--json", "--oracle", "eval", source)
        w = {"exp": {"terms": []}, "coeff": "1"}
        assert code == 0 and json.loads(out) == {
            "schema": "1",
            "input": source,
            "value": {"type": "ordinal", "terms": [{"exp": {"terms": [w]}, "coeff": "4"}]},
            "canonical": "w*4",
        }

    @pytest.mark.parametrize("source,name,operands", [
        ("(w + 1) +. (w*2 + 3)", "def_rec_add", (SmallOrdinal(1, 1), SmallOrdinal(2, 3))),
        ("(w + 1) *. 3", "def_rec_mul", (SmallOrdinal(1, 1), SmallOrdinal(0, 3))),
        # the right operand repeats the left one and is loaded, not read again
        ("(w*3 - w + 1 - 1) +. (w*3 - w + 1 - 1)", "def_rec_add",
         (SmallOrdinal(2, 0), SmallOrdinal(2, 0))),
    ])
    def test_oracle_mismatch_is_a_warning(self, monkeypatch, capsys, source, name, operands):
        seen = []

        def wrong(x, y):
            seen.append((x, y))
            return SmallOrdinal(0, 7)

        monkeypatch.setattr(f"transfinita.oracle.{name}", wrong)
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

    def test_internal_error_does_not_end_the_run(self, monkeypatch, tmp_path, capsys):
        # a defect in the printer on the first line only
        monkeypatch.setattr("transfinita.cli.encode", _failing_on(Ordinal(7), encode))
        deep = tmp_path / "deep.txt"
        deep.write_text("7\n1 + 1\n")
        code, out, _ = run(capsys, "batch", str(deep))
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 1 and len(lines) == 2
        assert lines[0]["error"]["kind"] == "internal" and "value" not in lines[0]
        assert lines[0]["error"]["message"].startswith("RuntimeError")
        assert lines[1]["canonical"] == "2"

    def test_cut_handle_record(self, tmp_path, capsys):
        # the message names the handle by its repr, byte for byte
        path = tmp_path / "cut.txt"
        path.write_text("sqrt[2](2) + 1\n")
        code, out, err = run(capsys, "batch", str(path))
        assert code == 1 and err == ""
        assert out == (
            '{"schema": "1", "input": "sqrt[2](2) + 1", "error": {"kind": "Undefined", '
            '"operation": "+", "message": "CutHandle(q=SurRational[2], n=2) is not a '
            'numeric value", "line": 1, "col": 12}}\n'
        )

    def batch(self, tmp_path, capsys, *sources):
        path = tmp_path / "lines.txt"
        path.write_text("".join(line + "\n" for line in sources))
        _, out, err = run(capsys, "batch", str(path))
        assert err == ""
        return [json.loads(line) for line in out.strip().splitlines()]

    def test_nesting_depth(self, tmp_path, capsys):
        # the records the per-character tokenizer and its parser gave, but
        # for the digit count: 2^(2^65536) has about 10^19727.8 digits
        exceeded = "finite power needs a number with more than 10^19727 digits"
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
            "message": "finite power needs a number with more than 10^19727 digits, "
            "budget is 10^5-ish (100000)",
            "line": 1,
            "col": 1,
        }


    def test_transfinite_heights_end_in_closed_form(self, tmp_path):
        # the first row ran past 60 s, and the H[w] rows were Unsupported,
        # while suprema were sampled along fundamental sequences
        rows = {
            "2^^(w^2)": "w",
            "2^^(w^w)": "w",
            "H[4](2, w^2)": "w",
            "H[6](3, w*2 + 1)": "w",
            "H[w](w, 2)": "NotRepresentable",
            "H[w](w+1, w)": "NotRepresentable",
            "H[w](2, w)": "w",
            "H[w](1, w)": "w",
            "H[w](2, w + 1)": "w*2",
            "H[w](0, w*2)": "w*2",
            "H[w](3, w^2 + 1)": "w^w*3",
            "H[w](2, w + 1000000)": "ResourceExceeded",
        }
        path = tmp_path / "lines.txt"
        path.write_text("".join(line + "\n" for line in rows))
        src = str(Path(__file__).resolve().parent.parent / "src")
        paths = [src, os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        done = subprocess.run(
            [sys.executable, "-m", "transfinita.cli", "batch", str(path)],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert done.stderr == ""
        recs = [json.loads(line) for line in done.stdout.splitlines()]
        assert [r.get("canonical") or r["error"]["kind"] for r in recs] == list(rows.values())

    def test_root_cut_powers_are_budgeted(self, tmp_path, capsys):
        # the first line used to run on with no budget; 3^(10^8) has
        # 47,712,126 digits
        recs = self.batch(
            tmp_path, capsys,
            "member(sqrt[100000000](2), 3/2)", "member(sqrt[100000](2), 3/2)",
        )
        assert recs[0]["error"] == {
            "kind": "ResourceExceeded",
            "operation": "member",
            "message": "finite power needs a number with more than 10^7 digits, "
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

    def test_values_too_deep_to_print(self, tmp_path, capsys):
        # refused where they are built, with the operation and its span; the
        # first two were internal RecursionError records (tuple comparison
        # recursed inside C) and the next two had neither operation nor span
        too_deep = {
            "w ^^ 500 +. w ^^ 500": ("^^", 3),
            "w^^3000 + w^^3001": ("^^", 2),
            f"w ^^ {MAX_DEPTH + 1}": ("^^", 3),
            "H[4](w, 5000) * w": ("H", 1),
            f"2^(w^^{MAX_DEPTH})": ("^", 2),
            f"(w^w)^^{MAX_DEPTH}": ("^^", 6),
        }
        fit = {
            "w ^^ 249": 249,
            f"w ^^ {MAX_DEPTH}": MAX_DEPTH,
            f"(w+1)^^{MAX_DEPTH}": MAX_DEPTH,
            f"(w^w)^^{MAX_DEPTH - 1}": MAX_DEPTH,
            f"2^(w^^{MAX_DEPTH - 1})": MAX_DEPTH,
        }
        recs = self.batch(tmp_path, capsys, *too_deep, *fit)
        message = f"value nested too deeply (more than {MAX_DEPTH} levels)"
        assert [r["error"] for r in recs[: len(too_deep)]] == [
            {"kind": "ResourceExceeded", "operation": op, "message": message, "line": 1, "col": col}
            for op, col in too_deep.values()
        ]
        assert [_tree_depth(r["value"]) for r in recs[len(too_deep) :]] == list(fit.values())

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_eval_of_a_value_too_deep_to_print(self, capsys, flags):
        code, out, err = run(capsys, *flags, "eval", "w ^^ 2000")
        assert code == 1 and "Traceback" not in err
        if flags:
            assert json.loads(out)["error"]["operation"] == "^^"
        else:
            # eval reports the record's kind and message, as the REPL does
            assert err == f"error: ResourceExceeded: value nested too deeply (more than {MAX_DEPTH} levels)\n"

    def test_root_degrees_larger_than_the_radicand(self, tmp_path, capsys):
        # at n = 10^18 the first line was an internal MemoryError from
        # building 2**(n-1), and the second did not end: it built 24**n
        # for a bounded search of roots i/j.  Proportional radicands are a
        # ratio of two integers, so the last three are decided exactly, on
        # either side of that old bound of 24.
        n = 10**18
        recs = self.batch(
            tmp_path, capsys,
            f"classify(sqrt[{n}](2))", f"classify(sqrt[{n}]((w*2 + 2)/(w*3 + 3)))",
            "classify(sqrt[2]((w*625 + 625)/(w*4 + 4)))",
            "classify(sqrt[2]((w*576 + 576)/(w*25 + 25)))",
        )
        assert [r["canonical"] for r in recs] == [
            "Irrational", "Irrational", "Surrational(25 / 2)", "Surrational(24 / 5)",
        ]

    def test_impossible_root_cuts_are_undefined(self, tmp_path, capsys):
        # each printed as a cut; only member() and classify() refused it
        recs = self.batch(
            tmp_path, capsys, "sqrt[0](2)", "sqrt[1](2)", "sqrt[2](-1)", "classify(sqrt[1](2))",
            "sqrt[2](2)",
        )
        degree, radicand = "root cuts need n >= 2", "root cuts need a strictly positive radicand"
        assert [r["error"] for r in recs[:4]] == [
            {"kind": "Undefined", "operation": "sqrt", "message": msg, "line": 1, "col": col}
            for msg, col in ((degree, 1), (degree, 1), (radicand, 1), (degree, 10))
        ]
        assert recs[4]["canonical"] == "sqrt[2](2)"


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
        monkeypatch.setattr("transfinita.oracle.def_rec_add", lambda x, y: SmallOrdinal(0, 7))
        code, out, err = self._run_repl(
            monkeypatch, capsys, [":oracle on", "1 +. w", ":oracle off", "2 +. w", ":quit"]
        )
        assert code == 0 and out.splitlines()[-4:] == [
            "oracle cross-check on", "w", "oracle cross-check off", "w",
        ]
        assert err.count("warning: oracle mismatch") == 1

    def test_defects_do_not_kill_the_loop(self, monkeypatch, capsys):
        # a defect in the printer: an internal error, not the end of the session
        monkeypatch.setattr(
            "transfinita.cli.print_canonical", _failing_on(Ordinal(7), print_canonical)
        )
        code, out, err = self._run_repl(monkeypatch, capsys, ["7", "1 + 1", ":quit"])
        assert code == 0
        assert "error: internal: RuntimeError" in err
        assert out.splitlines()[-1] == "2"

    def test_invalid_lambda_keeps_the_ambient(self, monkeypatch, capsys):
        # ":lambda 5" was accepted, and every member() after it failed
        code, out, err = self._run_repl(
            monkeypatch, capsys,
            [":lambda w^w", ":lambda 5", ":lambda w + 1", "member(sqrt[2](w), 10/3)", ":quit"],
        )
        assert code == 0
        assert out.count("ambient lambda = ") == 1 and out.splitlines()[-1] == "true"
        assert err.count("error: ") == 2 and "multiplication-closed" in err

    def test_commands_match_whole_words(self, monkeypatch, capsys):
        # a prefix match bound ter, evaluated of, set the ambient to w and
        # turned the oracle on; a word that is no command is an expression
        code, out, err = self._run_repl(
            monkeypatch, capsys, [":letter = 5", ":typeof", ":lambdaw", ":oracleX on", ":quit"]
        )
        assert code == 0
        assert out.splitlines() == ["transfinita repl -- :help for commands"]
        assert err.count("parse error: 1:1: unexpected character ':'") == 4

    def test_eof_ends_session(self, monkeypatch, capsys):
        def raise_eof(prompt=""):
            raise EOFError

        monkeypatch.setattr("builtins.input", raise_eof)
        assert main(["repl"]) == 0
