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
from .ordinal import ONE, ZERO, Ordinal
from .parser import ParseError, parse
from .printer import JSON_SCHEMA, VALUE_TYPES, encode, print_canonical
from .surinteger import check_lambda

CLI_MAX_DIGITS = 100_000  # interactive default, a tenth of the library's


def _digit_budget(text: str) -> int:
    # the type of --max-magnitude: below one digit is a usage error (exit 2)
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="transfinita",
        description="Exact arithmetic on ordinals, surintegers and surrationals.",
    )
    ap.add_argument(
        "--max-magnitude",
        type=_digit_budget,
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


def _to_fragment(o: Ordinal, oracle):
    # embed an ordinal of shape w*a + b into the oracle fragment, or None
    a = b = 0
    for e, c in o.terms:
        if e == ONE:
            a = c
        elif e == ZERO:
            b = c
        else:
            return None
    if a > oracle.DEFAULT_BOUND or b > oracle.DEFAULT_BOUND:
        return None
    return oracle.SmallOrdinal(a, b)


def _oracle_check(code, value, env, ctx, ambient) -> str:
    """Cross-check a top-level +./*. result; returns a message on mismatch."""
    tag, _, op = code[-1]
    if tag != "op" or op not in ("+.", "*."):
        return ""
    # loaded by the first check, not at start-up: only --oracle needs it
    from . import oracle

    try:
        # the code before the last instruction leaves its two operands
        x, y = (_to_fragment(as_ordinal(u), oracle) for u in run(code[:-1], env, ctx, ambient))
        v = _to_fragment(as_ordinal(value), oracle)
    except TransfinitaError:
        return ""
    if x is None or y is None or v is None:
        return ""
    try:
        ref = oracle.def_rec_add(x, y) if op == "+." else oracle.def_rec_mul(x, y)
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


def _record_text(line: str, env, ctx, ambient, use_oracle) -> str:
    """The line's JSON record, as ``batch`` prints it: the value's JSON text
    from the printer's walk is spliced in, not decoded and encoded again."""
    head = f'{{"schema": "{JSON_SCHEMA}", "input": {json.dumps(line)}, '
    try:
        value, warning = _eval_line(line, env, ctx, ambient, use_oracle)
        value_json, canonical = encode(value)
        tail = f'"value": {value_json}, "canonical": {json.dumps(canonical)}'
        if warning:
            tail += f', "warning": {json.dumps(warning)}'
        return f"{head}{tail}}}"
    except ParseError as err:
        d = err.diagnostic
        error = {
            "kind": "parse",
            "message": d.message,
            "line": d.line,
            "col": d.col,
            "expected": list(d.expected),
        }
    except EvalError as err:
        line_no, col = err.span or (None, None)
        error = {
            "kind": type(err.origin).__name__,
            "operation": err.operation,
            "message": str(err.origin),
            "line": line_no,
            "col": col,
        }
    except Exception as err:  # a defect, not a user error: report it, keep going
        error = {"kind": "internal", "message": _defect_message(err)}
    return f'{head}"error": {json.dumps(error)}}}'


def _is_error(text: str) -> bool:
    # a quote inside a JSON string is escaped, so this can only be the key
    return '"error": ' in text


def _record(line: str, env, ctx, ambient, use_oracle) -> dict:
    """The line's record as a dict; ``json.dumps`` of it is the batch line."""
    return json.loads(_record_text(line, env, ctx, ambient, use_oracle))


def _defect_message(err: Exception) -> str:
    """Print the defect's traceback to stderr; return its one-line text."""
    import traceback  # loaded only when a defect needs it, not at start-up

    traceback.print_exc(limit=-4)
    return f"{type(err).__name__}: {err}"


def _cmd_eval(args, ctx) -> int:
    env: dict = {}
    text = _record_text(args.expression, env, ctx, DEFAULT_AMBIENT, args.oracle)
    if args.json:
        print(text)
        return 1 if _is_error(text) else 0
    rec = json.loads(text)
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
            text = _record_text(line, env, ctx, DEFAULT_AMBIENT, args.oracle)
            failed = failed or _is_error(text)
            # one write per record: under python -u, print makes two
            sys.stdout.write(text + "\n")
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
        # a command is the whole first word; any other line is an expression
        word = line.split()[0]
        rest = line[len(word) :]
        try:
            if word in (":quit", ":q"):
                return 0
            if word == ":help":
                print(_REPL_HELP)
                continue
            if word == ":oracle":
                use_oracle = line.split()[-1] == "on"
                print(f"oracle cross-check {'on' if use_oracle else 'off'}")
                continue
            if word == ":lambda":
                lam = as_ordinal(evaluate(parse(rest), env, ctx, ambient))
                check_lambda(lam)  # an invalid one leaves the ambient as it was
                ambient = lam
                print(f"ambient lambda = {print_canonical(ambient)}")
                continue
            if word == ":type":
                v = evaluate(parse(rest), env, ctx, ambient)
                print(_value_kind(v))
                continue
            if word == ":let":
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
