"""Per-layer tracing by wrapping each layer's public functions.

A layer is a module of ``src/transfinita``.  While a ``Tracer`` is active,
every public function defined in a layer module is replaced by a wrapper in
every transfinita module namespace that holds it (including tuples and
dicts at module level, such as dispatch tables), so calls through names
imported with ``from .x import f`` are seen too.

A call that crosses into another layer opens a span; calls within the same
layer only count.  A layer's self time is the time inside its spans minus
the time inside the spans they caused.  The hot leaves ``compare``,
``nat_add`` and ``si_add`` only count calls: their time is charged to the
layer that called them.  Spans stay in memory (up to ``SPAN_CAP``) and are
written out after the run.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter

LAYERS = ("parser", "expr", "ordinal", "natural", "hyper", "surinteger",
          "surrational", "cuts", "printer", "cli")
HOT_LEAVES = {"compare", "nat_add", "si_add"}
SPAN_CAP = 200_000
_TOP = (None, "cli")  # spans opened by the harness or by the cli layer
_Q_OPS = {"q_add", "q_sub", "q_mul", "q_div", "q_neg", "q_inv"}


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls: Counter = Counter()
        self.incl: Counter = Counter()  # inclusive time of top-level calls
        self.stats = Counter()  # counters and maxima gathered by hooks
        self.spans: list = []  # (id, parent id, layer, name, line, t0, t1)
        self.spans_dropped = 0
        self.line = -1  # index of the line being traced
        self._stack = [[None, 0.0, 0]]  # [layer, child time, span id]
        self._next_id = 1
        self._patched: list = []

    # ------------------------------------------------------------ wrappers

    def wrap(self, layer: str, name: str, fn):
        """``fn`` wrapped as a function of ``layer``; the harness wraps the
        calls it makes itself with this."""
        calls, stack, selfs, spans = self.calls, self._stack, self.self_s, self.spans
        incl = self.incl
        pc = time.perf_counter
        hook = self._hook(name)
        tracer = self

        if name in HOT_LEAVES:
            def counted(*a, **k):
                calls[name] += 1
                return fn(*a, **k)
            return counted

        def timed(*a, **k):
            calls[name] += 1
            parent = stack[-1]
            if parent[0] == layer:
                r = fn(*a, **k)
            else:
                sid = tracer._next_id
                tracer._next_id = sid + 1
                frame = [layer, 0.0, sid]
                stack.append(frame)
                t0 = pc()
                try:
                    r = fn(*a, **k)
                finally:
                    t1 = pc()
                    stack.pop()
                    d = t1 - t0
                    selfs[layer] += d - frame[1]
                    parent[1] += d
                    if parent[0] in _TOP:
                        incl[name] += d
                    if len(spans) < SPAN_CAP:
                        spans.append((sid, parent[2], layer, name, tracer.line, t0, t1))
                    else:
                        tracer.spans_dropped += 1
            if hook is not None:
                hook(r)
            return r

        return timed

    def _hook(self, name: str):
        st = self.stats
        if name == "tokenize":
            def hook(r):
                st["tokens"] += len(r)
        elif name == "si_mul":
            def hook(r):
                st["si_mul_terms_out"] += len(r.terms)
        elif name == "exact_divide":
            def hook(r):
                st["exact_divide_hits"] += hasattr(r, "terms")
        elif name == "classify_root_cut":
            def hook(r):
                st["classify_inconclusive"] += r.kind == "inconclusive"
        elif name == "print_canonical":
            def hook(r):
                st["out_chars"] += len(r)
        elif name in _Q_OPS or name == "reduce":
            def hook(r):
                terms = len(r.num.terms) + len(r.den.terms)
                bits = max((abs(c).bit_length() for _, c in r.num.terms + r.den.terms), default=0)
                if terms > st["terms_max"]:
                    st["terms_max"] = terms
                if bits > st["coeff_bits_max"]:
                    st["coeff_bits_max"] = bits
        else:
            hook = None
        return hook

    # ------------------------------------------------------- installation

    def __enter__(self):
        mods = {n: importlib.import_module(f"transfinita.{n}") for n in LAYERS}
        wrapped = {}  # id(original) -> wrapper
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[id(obj)] = self.wrap(layer, name, obj)
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                new = _swap(obj, wrapped)
                if new is not obj:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, new)
        return self

    def __exit__(self, *exc):
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()
        return False

    # ------------------------------------------------------------ results

    def metrics(self) -> dict:
        """Per-layer numbers named as in BENCHMARK.json (without units)."""
        c, st = self.calls, self.stats
        ed = c["exact_divide"]
        cl = c["classify_root_cut"]
        m = {f"{layer}.self_s": s for layer, s in self.self_s.items()}
        m.update({
            "parser.tokens": st["tokens"],
            "expr.nodes": c["evaluate"],
            "ordinal.compare_calls": c["compare"],
            "natural.nat_add_calls": c["nat_add"],
            "hyper.hyperop_calls": c["hyperop"],
            "surinteger.si_mul_calls": c["si_mul"],
            "surinteger.si_mul_terms_out": st["si_mul_terms_out"],
            "surrational.q_ops": sum(c[n] for n in _Q_OPS),
            "surrational.terms_max": st["terms_max"],
            "surrational.coeff_bits_max": st["coeff_bits_max"],
            "surrational.exact_divide_hit_ratio": st["exact_divide_hits"] / ed if ed else 0.0,
            "cuts.classify_inconclusive_ratio": st["classify_inconclusive"] / cl if cl else 0.0,
            "printer.out_chars": st["out_chars"],
        })
        return m

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tlayer\tname\tline\tt0\tt1\n")
            for s in self.spans:
                fh.write("\t".join(map(str, s)) + "\n")


def _swap(obj, wrapped: dict):
    """obj with wrapped functions substituted, one container level deep."""
    if id(obj) in wrapped and inspect.isfunction(obj):
        return wrapped[id(obj)]
    if isinstance(obj, tuple) and any(id(x) in wrapped for x in obj):
        return tuple(wrapped.get(id(x), x) for x in obj)
    if isinstance(obj, dict) and any(_swap(v, wrapped) is not v for v in obj.values()):
        return {k: _swap(v, wrapped) for k, v in obj.items()}
    return obj
