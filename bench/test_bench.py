"""Tests of the benchmark itself.  Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.setrecursionlimit(20_000)

import child  # noqa: E402
import corpus  # noqa: E402
import refcheck  # noqa: E402
import run as bench_run  # noqa: E402
from layertrace import Tracer  # noqa: E402
from transfinita import cli, parser  # noqa: E402
from transfinita.hyper import EvalContext  # noqa: E402

WORKLOADS = list(corpus.WORKLOADS)


def _records(lines) -> list:
    """The library's records for ``lines``, as ``batch`` prints them."""
    ctx = EvalContext(max_digits=cli.CLI_MAX_DIGITS)
    ambient = cli._default_ambient()
    return [json.dumps(cli._record(line, {}, ctx, ambient, False)) for line in lines]


def _items(workload, seed, n, kind):
    return [it for it in corpus.take(workload, seed, n) if it[1][0] == kind]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    first = corpus.take(workload, 5, 200)
    assert corpus.take(workload, 5, 200) == first
    assert [line for line, _ in corpus.take(workload, 6, 200)] != [line for line, _ in first]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checker_accepts_the_library_records(workload):
    items = corpus.take(workload, 3, 300)
    raws = _records([line for line, _ in items])
    assert bench_run._check_all(items, raws, 3) == []


def _bump_first_coeff(tree: dict, depth: int) -> None:
    """Add one to the first coefficient found ``depth`` exponent levels down."""
    term = tree["terms"][0]
    while depth and term["exp"]["terms"]:
        term, depth = term["exp"]["terms"][0], depth - 1
    term["coeff"] = str(int(term["coeff"]) + 1)


@pytest.mark.parametrize("workload,kind,depth", [
    ("field-deep", "value", 0),
    ("batch-mixed", "value", 0),
    ("ordinal-deep", "value", 2),
    ("ordinal-deep", "ord", 1),
])
def test_checker_rejects_one_coefficient_off(workload, kind, depth):
    items = _items(workload, 4, 300, kind)[:30]
    raws = _records([line for line, _ in items])
    pt = refcheck.Point(4)
    tested = 0
    for (line, expect), raw in zip(items, raws):
        rec = json.loads(raw)
        if "error" in rec:
            continue
        v = rec["value"]
        tree = {"surrational": lambda: v["num"], "gaussian": lambda: v["re"]["num"]}.get(
            v["type"], lambda: v)()
        if not tree["terms"]:
            continue
        assert refcheck.check(raw, line, expect, pt) is None
        _bump_first_coeff(tree, depth)
        assert refcheck.check(json.dumps(rec), line, expect, pt) is not None, line
        tested += 1
    assert tested >= 10


def test_checker_rejects_a_wrong_error_kind():
    items = _items("batch-mixed", 2, 800, "error")
    raws = _records([line for line, _ in items])
    pt = refcheck.Point(2)
    assert len(items) >= 20
    for (line, expect), raw in zip(items, raws):
        rec = json.loads(raw)
        assert refcheck.check(raw, line, expect, pt) is None
        rec["error"]["kind"] = "Undefined" if expect[1] != "Undefined" else "parse"
        assert refcheck.check(json.dumps(rec), line, expect, pt) is not None


def test_checker_rejects_a_value_where_an_error_is_expected():
    (line, expect), = _items("batch-mixed", 2, 100, "error")[:1]
    rec = json.loads(_records(["0"])[0])
    rec["input"] = line
    assert refcheck.check(json.dumps(rec), line, expect, refcheck.Point(2)) is not None


def test_checker_rejects_a_truncated_output_stream():
    items = corpus.take("batch-mixed", 2, 100)
    raws = _records([line for line, _ in items])
    cut = raws[:89] + [raws[89][: len(raws[89]) // 2]]
    bad = bench_run._check_all(items, cut, 2)
    assert [i for i, _, _ in bad] == list(range(89, 100))
    assert "JSONDecodeError" in bad[0][2] and "no record" in bad[1][2]


class _Run:
    def __init__(self, records, sent):
        self.records, self.sent = records, sent


def test_a_later_pass_must_repeat_the_first():
    items = corpus.take("batch-mixed", 2, 50)
    raws = _records([line for line, _ in items])
    assert bench_run._check_passes(items, _Run(raws * 3, 150), 2) == []
    changed = raws * 2 + raws[:7] + [raws[8]] + raws[8:]
    bad = bench_run._check_passes(items, _Run(changed, 150), 2)
    assert [i for i, _, _ in bad] == [107]
    bad = bench_run._check_passes(items, _Run(raws * 2 + raws[:10], 150), 2)
    assert [i for i, _, _ in bad] == list(range(110, 150))


def test_chunks_keep_every_line_and_fit_the_pipe():
    lines = [line for line, _ in corpus.take("ordinal-deep", 3, 300)]
    chunks = child.make_chunks(lines, 10)
    assert sum(n for n, _ in chunks) == len(lines)
    assert b"".join(data for _, data in chunks) == "".join(s + "\n" for s in lines).encode()
    assert all(n <= 10 and len(data) <= child.CHUNK_BYTES for n, data in chunks)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_plain_records_are_identical(workload):
    lines = [line for line, _ in corpus.take(workload, 8, 150)]
    plain = _records(lines)
    original = cli.parse
    with Tracer() as tr:
        assert cli.parse is not original
        traced = _records(lines)
    assert cli.parse is original and parser.parse is original
    assert traced == plain
    m = tr.metrics()
    assert m["parser.tokens"] > 0 and m["expr.nodes"] > 0
    assert sum(tr.self_s.values()) > 0


def _declared(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def test_end_to_end_run_reports_the_declared_metrics():
    os.makedirs(bench_run.OUT, exist_ok=True)
    res = bench_run.end_to_end("batch-mixed", 1, 1)
    assert res["bad"] == [] and not res["crashed"]
    assert res["attempted"] > 100
    m = res["metrics"]
    assert {k: unit for k, (_, unit) in m.items()} == _declared("end_to_end")
    assert m["lines_per_s"][0] > 0 and m["line_p99_ms"][0] >= m["line_p50_ms"][0] > 0
    assert m["setup_s"][0] > 0 and m["peak_rss_mb"][0] > 0


def test_traced_run_reports_the_declared_metrics():
    os.makedirs(bench_run.OUT, exist_ok=True)
    res = bench_run.traced("ordinal-deep", 1, 1)
    assert res["bad"] == []
    assert {k: unit for k, (_, unit) in res["metrics"].items()} == _declared("per_layer")


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "batch-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
