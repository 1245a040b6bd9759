"""Seeded batch benchmark for transfinita.

    python3 bench/run.py --workload batch-mixed|field-deep|ordinal-deep|all \
        --seed N --seconds S --trace 0|1

With ``--trace 0`` it spawns ``transfinita batch`` from this checkout's
``src`` (one child process, one harness process: a closed loop with one
client), feeds it the workload's seeded corpus for S seconds, checks every
record against an independent reference and prints the end-to-end metrics.
With ``--trace 1`` it runs a fixed-size prefix of the same corpus
in-process, once plain and once with every layer wrapped, checks the
records, and prints the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import sys
import time

from calib import REF_SLICE_S, REF_SPAWN_S, spawn_s
from child import Cpus, make_chunks, run_child
from corpus import WORKLOADS, take
from refcheck import Point, check

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SPAWNS = 15  # set-up-only children per run
# Distinct lines per run: the harness cycles through them until time is up.
# One pass takes 5 to 13 s at the seed commit, so a 30 s run makes two to
# six and each line's time is a median over its passes.  Many lines keep
# the draw of line sizes, and so p50 and p99, steady from seed to seed.
CORPUS_LINES = {"batch-mixed": 16000, "field-deep": 2000, "ordinal-deep": 4000}
# Lines per chunk: about 30 ms of the child's work at the seed commit.
CHUNK_LINES = {"batch-mixed": 100, "field-deep": 10, "ordinal-deep": 10}
CAL_WINDOW = 3  # reference slices on either side of a chunk that scale its times
# Lines per second of --seconds for the traced run: the plain and the traced
# pass together take about --seconds.
TRACE_LINES_PER_S = {"batch-mixed": 1000, "field-deep": 100, "ordinal-deep": 100}
SHOW_FAILURES = 5


def _percentile(sorted_vals: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def _check_all(pairs, raws, seed) -> list:
    """(index, line, reason) for every wrong or missing record."""
    pt = Point(seed)
    bad = []
    for i, (line, expect) in enumerate(pairs):
        if i >= len(raws):
            bad.append((i, line, "no record (the child ended or was stopped)"))
            continue
        reason = check(raws[i], line, expect, pt)
        if reason:
            bad.append((i, line, reason))
    return bad


def end_to_end(workload: str, seed: int, seconds: int) -> dict:
    cpus = Cpus()
    try:
        return _end_to_end(workload, seed, seconds, cpus)
    finally:
        cpus.restore()


def _end_to_end(workload: str, seed: int, seconds: int, cpus: Cpus) -> dict:
    items = take(workload, seed, CORPUS_LINES[workload])
    lines = [line for line, _ in items]
    # Set-up is mostly exec, file reads and imports, which a slice of the
    # reference loop gauges badly; a reference spawn on either side of each
    # child gauges it instead.
    refs = [cpus.on_work(spawn_s)]
    setups = []
    for _ in range(SETUP_SPAWNS):
        run = run_child(ROOT, OUT, [], 0, cpus)
        if run.setup_s is None or run.exit_code != 0:
            raise RuntimeError(f"set-up child failed (exit {run.exit_code}): {run.stderr[-2000:]}")
        refs.append(cpus.on_work(spawn_s))
        setups.append(run.setup_s * REF_SPAWN_S * 2 / (refs[-2] + refs[-1]))

    gc.disable()  # no collector pauses in the harness while it stamps records
    try:
        run = run_child(ROOT, OUT, make_chunks(lines, CHUNK_LINES[workload]), seconds, cpus)
    finally:
        gc.enable()
    if run.setup_s is None:
        raise RuntimeError(f"child gave no record for the sentinel line: {run.stderr[-2000:]}")
    bad = _check_passes(items, run, seed)
    sentinel = json.loads(run.sentinel)
    if sentinel.get("canonical") != "0" or sentinel["value"]["terms"]:
        bad.append((-1, "0", "sentinel record is wrong"))
    crashed = run.killed or run.exit_code not in (0, 1) or run.peak_rss_kb is None

    # Scale each chunk's times by the reference slices around it: the median
    # of CAL_WINDOW slices on either side.
    per_line = [[] for _ in lines]
    busy = 0.0
    for k, (lo, hi, wall) in enumerate(run.chunks):
        near = run.cals[max(0, k + 1 - CAL_WINDOW):k + 1 + CAL_WINDOW]
        scale = REF_SLICE_S / statistics.median(near)
        busy += wall * scale
        for r in range(lo, hi):
            per_line[r % len(lines)].append(run.gaps[r] * scale)
    # each line's time is its median over the passes
    times = sorted(statistics.median(v) for v in per_line if v) or [0.0]
    answered = run.chunks[-1][1] if run.chunks else 0
    metrics = {
        "lines_per_s": (answered / busy if busy else 0.0, "1/s"),
        "line_p50_ms": (_percentile(times, 0.50) * 1e3, "ms"),
        "line_p99_ms": (_percentile(times, 0.99) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": ((run.peak_rss_kb or 0) / 1024, "MB"),
    }
    n = len(times)
    notes = [f"{run.sent} lines sent, {answered} answered in {len(run.chunks)} chunks, "
             f"{answered / len(lines):.1f} passes over {len(lines)} lines; "
             f"p99 has {n - math.ceil(0.99 * n)} lines beyond it",
             f"reference slice median {statistics.median(run.cals or [0]) * 1e3:.3f} ms "
             f"(times are scaled to {REF_SLICE_S * 1e3:g} ms)"]
    if crashed:
        notes.append(f"child ended abnormally (exit {run.exit_code}, killed={run.killed}): "
                     f"{run.stderr[-1500:]}")
    return {"attempted": run.sent, "bad": bad, "crashed": crashed, "metrics": metrics, "notes": notes}


def _check_passes(items: list, run, seed: int) -> list:
    """Check the first pass against the reference; a later pass must repeat
    the first pass's records exactly."""
    n = len(items)
    bad = _check_all(items[:min(n, run.sent)], run.records[:n], seed)
    wrong = {i for i, _, _ in bad}
    for r in range(n, run.sent):
        i = r % n
        if r >= len(run.records):
            bad.append((r, items[i][0], "no record (the child ended or was stopped)"))
        elif i in wrong:
            bad.append((r, items[i][0], "wrong, as in the first pass"))
        elif run.records[r] != run.records[i]:
            bad.append((r, items[i][0], "record differs from the first pass"))
    return bad


def traced(workload: str, seed: int, seconds: int) -> dict:
    from layertrace import Tracer
    from transfinita import cli
    from transfinita.hyper import EvalContext

    items = take(workload, seed, TRACE_LINES_PER_S[workload] * seconds)
    ctx = EvalContext(max_digits=cli.CLI_MAX_DIGITS)
    ambient = cli._default_ambient()
    env: dict = {}

    def answer(record, dumps, line) -> str:
        try:
            return dumps(record(line, env, ctx, ambient, False))
        except Exception as err:  # batch would die here; fail this line only
            return f"{type(err).__name__}: {err}"

    for line, _ in items[:20]:  # warm-up, not timed
        answer(cli._record, json.dumps, line)
    t0 = time.perf_counter()
    plain = [answer(cli._record, json.dumps, line) for line, _ in items]
    plain_s = time.perf_counter() - t0

    with Tracer() as tr:
        record = tr.wrap("cli", "_record", cli._record)
        dumps = tr.wrap("cli", "json", json.dumps)
        out = []
        t0 = time.perf_counter()
        for i, (line, _) in enumerate(items):
            tr.line = i
            out.append(answer(record, dumps, line))
        traced_s = time.perf_counter() - t0
    tr.write_spans(os.path.join(OUT, f"spans-{workload}.tsv"))

    bad = _check_all(items, out, seed)
    bad += [(i, items[i][0], "traced record differs from the plain one")
            for i, (a, b) in enumerate(zip(plain, out)) if a != b]
    m = {k: (v, _unit(k)) for k, v in tr.metrics().items()}
    per_line = tr.incl["_record"] + tr.incl["json"]
    m.update({
        "cli.json_s": (tr.incl["json"], "s"),
        "trace.wall_s": (traced_s, "s"),
        "trace.overhead_ratio": (traced_s / plain_s, "ratio"),
        "trace.self_sum_ratio": (sum(tr.self_s.values()) / traced_s, "ratio"),
        "trace.parse_share": (tr.incl["parse"] / per_line, "ratio"),
        "trace.evaluate_share": (tr.incl["evaluate"] / per_line, "ratio"),
    })
    notes = [f"{len(items)} lines traced; plain pass {plain_s:.3f} s; "
             f"{len(tr.spans)} spans kept, {tr.spans_dropped} dropped"]
    return {"attempted": len(items), "bad": bad, "crashed": False, "metrics": m, "notes": notes}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bits_max"):
        return "bits"
    if name.endswith("out_chars"):
        return "chars"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "transfinita", "cli.py")):
        print(f"no transfinita sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.setrecursionlimit(20_000)  # the reference walks towers up to w^^247
    sys.set_int_max_str_digits(0)
    os.makedirs(OUT, exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    run = traced if args.trace else end_to_end
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = run(name, args.seed, args.seconds)
        failed = len(res["bad"])
        print(f"== {name} (seed {args.seed}, {'traced' if args.trace else 'untraced'})")
        for note in res["notes"]:
            print(f"   {note}")
        print(f"   failed_frac {failed / max(1, res['attempted']):.6f} ({failed} of {res['attempted']})")
        for i, line, reason in res["bad"][:SHOW_FAILURES]:
            print(f"   FAIL line {i}: {line[:120]!r}: {reason}")
        for key, (val, unit) in res["metrics"].items():
            print(f"   {key:40s} {val:14.6g} {unit}")
        total["correct"] &= failed == 0 and not res["crashed"]
        total["attempted"] += res["attempted"]
        total["failed"] += failed
        prefix = "" if len(names) == 1 else f"{name}/"
        for key, (val, unit) in res["metrics"].items():
            total["metrics"][prefix + key] = {"value": val, "unit": unit}
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
