"""Command-line front end: one-shot evaluation, batch files, and a REPL.

Batch mode emits one JSON record per input line with a top-level schema tag:

    {"schema": "1", "input": "...", "value": {...}, "canonical": "..."}
    {"schema": "1", "input": "...", "error": {"kind": "...", "message": "..."}}

and exits 0 exactly when no line produced an error.  The REPL adds ``:let``
bindings, ``:type``, ``:lambda`` (ambient truncation point for member()),
and ``:oracle on|off`` (cross-check sums/products against the definitional
oracle wherever the operands fit its fragment).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import TransfinitaError
from .expr import DEFAULT_AMBIENT, EvalError, as_ordinal, evaluate, run
from .hyper import EvalContext
from .oracle import DEFAULT_BOUND, SmallOrdinal, def_rec_add, def_rec_mul
from .ordinal import ONE, ZERO, Ordinal
from .parser import ParseError, parse
from .printer import JSON_SCHEMA, VALUE_TYPES, print_canonical, value_tree

CLI_MAX_DIGITS = 100_000  # interactive default, a tenth of the library's


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="transfinita",
        description="Exact arithmetic on ordinals, surintegers and surrationals.",
    )
    ap.add_argument(
        "--max-magnitude",
        type=int,
        default=CLI_MAX_DIGITS,
        metavar="DIGITS",
        help="decimal-digit budget for finite powers (default %(default)s)",
    )
    ap.add_argument("--json", action="store_true", help="emit JSON records")
    ap.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check +./*. against the definitional oracle where possible",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    p_eval = sub.add_parser("eval", help="evaluate one expression")
    p_eval.add_argument("expression")
    p_batch = sub.add_parser("batch", help="evaluate a file, one expression per line")
    p_batch.add_argument("path")
    sub.add_parser("repl", help="interactive loop")
    return ap


def _to_fragment(o: Ordinal):
    # embed an ordinal of shape w*a + b into the oracle fragment, or None
    a = b = 0
    for e, c in o.terms:
        if e == ONE:
            a = c
        elif e == ZERO:
            b = c
        else:
            return None
    if a > DEFAULT_BOUND or b > DEFAULT_BOUND:
        return None
    return SmallOrdinal(a, b)


def _oracle_check(code, value, env, ctx, ambient) -> str:
    """Cross-check a top-level +./*. result; returns a message on mismatch."""
    tag, _, op = code[-1]
    if tag != "op" or op not in ("+.", "*."):
        return ""
    try:
        # the code before the last instruction leaves its two operands
        x, y = (_to_fragment(as_ordinal(u)) for u in run(code[:-1], env, ctx, ambient))
        v = _to_fragment(as_ordinal(value))
    except TransfinitaError:
        return ""
    if x is None or y is None or v is None:
        return ""
    try:
        ref = def_rec_add(x, y) if op == "+." else def_rec_mul(x, y)
    except TransfinitaError:
        return ""
    if ref != v:
        return f"oracle mismatch: closed form gave {v}, definitional recursion {ref}"
    return ""


def _eval_line(line, env, ctx, ambient, use_oracle):
    code = parse(line)
    value = evaluate(code, env, ctx, ambient)
    warning = _oracle_check(code, value, env, ctx, ambient) if use_oracle else ""
    return value, warning


def _record(line: str, env, ctx, ambient, use_oracle) -> dict:
    rec = {"schema": JSON_SCHEMA, "input": line}
    try:
        value, warning = _eval_line(line, env, ctx, ambient, use_oracle)
        # both before either is stored: a failing printer leaves no half record
        tree, canonical = value_tree(value), print_canonical(value)
        rec["value"], rec["canonical"] = tree, canonical
        if warning:
            rec["warning"] = warning
    except ParseError as err:
        d = err.diagnostic
        rec["error"] = {
            "kind": "parse",
            "message": d.message,
            "line": d.line,
            "col": d.col,
            "expected": list(d.expected),
        }
    except EvalError as err:
        line_no, col = err.span or (None, None)
        rec["error"] = {
            "kind": type(err.origin).__name__,
            "operation": err.operation,
            "message": str(err.origin),
            "line": line_no,
            "col": col,
        }
    except TransfinitaError as err:
        rec["error"] = {"kind": type(err).__name__, "message": str(err)}
    except Exception as err:  # a defect, not a user error: report it, keep going
        rec["error"] = {"kind": "internal", "message": _defect_message(err)}
    return rec


def _defect_message(err: Exception) -> str:
    """Print the defect's traceback to stderr; return its one-line text."""
    import traceback  # loaded only when a defect needs it, not at start-up

    traceback.print_exc(limit=-4)
    return f"{type(err).__name__}: {err}"


def _cmd_eval(args, ctx) -> int:
    env: dict = {}
    rec = _record(args.expression, env, ctx, DEFAULT_AMBIENT, args.oracle)
    if args.json:
        print(json.dumps(rec))
        return 0 if "error" not in rec else 1
    if "error" in rec:
        print(f"error: {rec['error']['kind']}: {rec['error']['message']}", file=sys.stderr)
        return 1
    if rec.get("warning"):
        print(f"warning: {rec['warning']}", file=sys.stderr)
    print(rec["canonical"])
    return 0


def _cmd_batch(args, ctx) -> int:
    env: dict = {}
    failed = False
    with open(args.path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            rec = _record(line, env, ctx, DEFAULT_AMBIENT, args.oracle)
            failed = failed or "error" in rec
            print(json.dumps(rec))
    return 1 if failed else 0


def _default_ambient() -> Ordinal:
    # the benchmark (bench/run.py, bench/test_bench.py) still calls this
    return DEFAULT_AMBIENT


_REPL_HELP = """commands:
  :let NAME = EXPR    bind a name
  :type EXPR          show the value's kind
  :lambda EXPR        set the ambient truncation point for member()
  :oracle on|off      cross-check +./*. against the definitional oracle
  :help               this message
  :quit               leave"""


def _value_kind(v) -> str:
    entry = VALUE_TYPES.get(type(v))
    return entry[0] if entry else type(v).__name__


def _cmd_repl(args, ctx) -> int:
    env: dict = {}
    ambient = DEFAULT_AMBIENT
    use_oracle = args.oracle
    print("transfinita repl -- :help for commands")
    while True:
        try:
            line = input("> ").strip()
        except EOFError:
            print()
            return 0
        if not line:
            continue
        try:
            if line in (":quit", ":q"):
                return 0
            if line == ":help":
                print(_REPL_HELP)
                continue
            if line.startswith(":oracle"):
                use_oracle = line.split()[-1] == "on"
                print(f"oracle cross-check {'on' if use_oracle else 'off'}")
                continue
            if line.startswith(":lambda"):
                ambient = as_ordinal(
                    evaluate(parse(line[len(":lambda") :]), env, ctx, ambient)
                )
                print(f"ambient lambda = {print_canonical(ambient)}")
                continue
            if line.startswith(":type"):
                v = evaluate(parse(line[len(":type") :]), env, ctx, ambient)
                print(_value_kind(v))
                continue
            if line.startswith(":let"):
                rest = line[len(":let") :]
                name, _, body = rest.partition("=")
                name = name.strip()
                if not name.isidentifier() or not body.strip():
                    print("usage: :let NAME = EXPR", file=sys.stderr)
                    continue
                env[name] = evaluate(parse(body), env, ctx, ambient)
                print(f"{name} = {print_canonical(env[name])}")
                continue
            value, warning = _eval_line(line, env, ctx, ambient, use_oracle)
            if warning:
                print(f"warning: {warning}", file=sys.stderr)
            print(print_canonical(value))
        except ParseError as err:
            print(f"parse error: {err.diagnostic}", file=sys.stderr)
        except TransfinitaError as err:
            print(f"error: {err}", file=sys.stderr)
        except Exception as err:  # a defect: report it, keep the session
            print(f"error: internal: {_defect_message(err)}", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    ctx = EvalContext(max_digits=args.max_magnitude)
    if args.command == "eval":
        return _cmd_eval(args, ctx)
    if args.command == "batch":
        return _cmd_batch(args, ctx)
    return _cmd_repl(args, ctx)


if __name__ == "__main__":
    sys.exit(main())
