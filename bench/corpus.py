"""Seeded line generators for the benchmark workloads.

A corpus is an endless, deterministic stream of ``(line, expectation)``
pairs drawn from ``random.Random(f"{workload}:{seed}")``.  Lines come in
blocks of 100 whose mix of line kinds is fixed per workload; the seed
shuffles each block and draws each line's parameters, and a few kinds also
step a size parameter through its range across the block.  Fixed mixes keep
the share of heavy lines, and so the medians and tails, steady from seed to
seed.

Expectations are what refcheck.check compares a record with:

    ("value", ast, level)   natural operations, checked at a random point
    ("ord", ordinal[, kind])  exact normal form from a known closed form
                              (or, where given, an error of that kind)
    ("bool", b) / ("class", name) / ("error", kind)
    ("root", kinds, radicand_ast, n)   allowed verdicts of classify(sqrt[n])

Known limit at the seed commit: ``ordinal_str`` recurses twice per tower
level and the batch process dies with RecursionError from ``w ^^ 248`` on,
so towers stop at height 247.  If a change lowers that limit, the failed
count shows it.
"""

from __future__ import annotations

import random

from refcheck import ONE, ZERO, ast_level, ord_int, ord_text, si_text, tower

MAX_TOWER = 247


# ------------------------------------------------------------ text + tree


class Node:
    """An expression both as source text and as a reference tree."""

    __slots__ = ("text", "ast")

    def __init__(self, text: str, ast):
        self.text = text
        self.ast = ast


def _paren(t: str) -> str:
    return t if t.isalnum() else f"({t})"


def leaf(terms: tuple) -> Node:
    return Node(si_text(terms), ("o", terms))


def binop(op: str, a: Node, b: Node) -> Node:
    return Node(f"{_paren(a.text)} {op} {_paren(b.text)}", (op, a.ast, b.ast))


def neg(a: Node) -> Node:
    return Node(f"-{_paren(a.text)}", ("neg", a.ast))


def value(n: Node):
    return ("value", n.ast, ast_level(n.ast))


def chain(op: str, nodes) -> Node:
    out = nodes[0]
    for n in nodes[1:]:
        out = binop(op, out, n)
    return out


# ----------------------------------------------------------- random values


def _ri(rng, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi]; cheaper than Random.randint."""
    return lo + int(rng.random() * (hi - lo + 1))


def poly(rng, nterms: int, maxdeg: int, cmax: int, signed=True) -> tuple:
    """Polynomial in w with a positive leading coefficient."""
    degs = sorted(rng.sample(range(maxdeg + 1), min(nterms, maxdeg + 1)), reverse=True)
    terms = []
    for i, d in enumerate(degs):
        c = _ri(rng, 1, cmax)
        if signed and i and rng.random() < 0.5:
            c = -c
        terms.append((ord_int(d), c))
    return tuple(terms)


def rand_ord(rng, depth: int, width: int, cmax: int) -> tuple:
    """Nonzero ordinal with nesting depth up to ``depth`` and up to
    ``width`` terms per level."""
    if depth == 0:
        return ord_int(_ri(rng, 1, cmax))
    exps = {rand_ord(rng, _ri(rng, 0, depth - 1), width, cmax) for _ in range(width)}
    if rng.random() < 0.5:
        exps.add(ZERO)
    return tuple((e, _ri(rng, 1, cmax)) for e in sorted(exps, reverse=True))


def _last_class(o: tuple) -> str:
    if not o:
        return "zero"
    return "successor" if not o[-1][0] else "limit"


def hyper_int(n: int, m: int, k: int) -> int:
    """H[n](m, k) on small naturals, unfolded directly."""
    if n == 0:
        return m + 1
    if n == 1:
        return m + k
    if n == 2:
        return m * k
    if n == 3:
        return m**k
    if k == 0:
        return 1
    v = m
    for _ in range(k - 1):
        v = hyper_int(n - 1, m, v)
    return v


def hyper_omega_int(m: int, k: int) -> tuple:
    """H[w](m, k) for finite arguments: the diagonal over finite indices."""
    if k == 0:
        return ONE
    if k == 1:
        return ord_int(m)
    if m in (0, 1):
        return ord_int(k + m)
    if m == 2 and k == 2:
        return ord_int(4)
    return ((ONE, 1),)


# (index, base, height) whose value stays small
_SMALL_HYPER = [(n, m, k) for n in range(4) for m in range(2, 8) for k in range(0, 6)]
_SMALL_HYPER += [(4, 2, k) for k in range(5)] + [(4, 3, k) for k in range(4)]
_SMALL_HYPER += [(4, m, 2) for m in range(4, 10)] + [(5, 2, k) for k in range(4)]
_SMALL_HYPER += [(5, 3, 2), (6, 2, 2), (6, 3, 1)]

# --------------------------------------------------------- line generators
# Each takes (rng, j), j counting the kind's lines within the block.


def g_ord_nat(rng, j):
    a, b = leaf(rand_ord(rng, 2, 2, 9)), leaf(rand_ord(rng, 2, 2, 9))
    n = binop(rng.choice("+*"), a, b)
    return n.text, value(n)


def g_si(rng, j):
    a, b = leaf(poly(rng, 3, 3, 20)), leaf(poly(rng, 2, 3, 20))
    n = [binop("-", a, b), binop("*", a, b), binop("+", a, neg(b)), neg(a)][j % 4]
    return n.text, value(n)


def g_q(rng, j):
    p, q = leaf(poly(rng, 2, 2, 12)), leaf(poly(rng, 2, 2, 12))
    r, s = leaf(poly(rng, 2, 2, 12)), leaf(poly(rng, 1, 2, 12))
    n = binop("/", p, q)
    if j % 3:
        n = binop("+-*"[j % 3], n, binop("/", r, s))
    return n.text, value(n)


def _cx(rng) -> Node:
    re, im = leaf(poly(rng, 2, 2, 9)), leaf(poly(rng, 1, 2, 9))
    return Node(f"({re.text}, {im.text})", ("cx", re.ast, im.ast))


def g_cx(rng, j):
    n = binop("+-*/"[j % 4], _cx(rng), _cx(rng))
    return n.text, value(n)


def _frag_text(x) -> str:
    return ord_text(_frag_ord(x))


def _frag_ord(x) -> tuple:
    a, b = x
    return tuple(t for t in (((ONE, a) if a else None), ((ZERO, b) if b else None)) if t)


def g_frag(rng, j):
    """Recursive operations on w*a + b against the definitional oracle."""
    from transfinita.errors import FragmentExceeded
    from transfinita.oracle import SmallOrdinal, def_rec_add, def_rec_mul, def_rec_pow

    op, fn = [("+.", def_rec_add), ("*.", def_rec_mul), ("^", def_rec_pow)][j % 3]
    while True:
        x = SmallOrdinal(_ri(rng, 0, 4), _ri(rng, 0, 5))
        y = SmallOrdinal(_ri(rng, 0, 3), _ri(rng, 0, 4))
        try:
            ref = fn(x, y)
        except FragmentExceeded:
            continue
        return f"({_frag_text(x)}) {op} ({_frag_text(y)})", ("ord", _frag_ord(ref))


def _leftsub(rng, depth: int, width: int):
    a = rand_ord(rng, depth, width, 9)
    b = rand_ord(rng, depth, width, 9)
    if rng.random() < 0.6 and len(a) > 1:
        # lead b with one of a's lower exponents so a +. b keeps a long prefix
        lead = a[_ri(rng, 1, len(a) - 1)][0]
        b = ((lead, _ri(rng, 1, 9)),) + tuple(t for t in b if t[0] < lead)
    at = ord_text(a)
    return f"({at}) -. (({at}) +. ({ord_text(b)}))", ("ord", b)


def g_leftsub(rng, j):
    return _leftsub(rng, 2, 2)


def g_hyper_small(rng, j):
    kind = j % 4
    if kind == 0:
        k = _ri(rng, 0, 6)
        return f"w ^^ {k}", ("ord", tower(k))
    if kind == 1:
        m, k = _ri(rng, 0, 9), _ri(rng, 0, 9)
        return f"H[w]({m}, {k})", ("ord", hyper_omega_int(m, k))
    n, m, k = rng.choice(_SMALL_HYPER)
    if n == 4 and kind == 2:
        return f"{m} ^^ {k}", ("ord", ord_int(hyper_int(n, m, k)))
    return f"H[{n}]({m}, {k})", ("ord", ord_int(hyper_int(n, m, k)))


def g_classify_ord(rng, j):
    a = rand_ord(rng, 2, 3, 9) if j % 4 else ZERO
    return f"classify({ord_text(a)})", ("class", _last_class(a))


def g_cut_small(rng, j):
    kind = j % 4
    if kind == 0:  # rational cut: p = q - d is below q, q + d is not
        q = binop("/", leaf(poly(rng, 2, 2, 9)), leaf(poly(rng, 1, 1, 9)))
        d = binop("/", leaf(ord_int(_ri(rng, 1, 9))), leaf(poly(rng, 2, 1, 9, False)))
        below = rng.random() < 0.5
        p = binop("-" if below else "+", q, d)
        return f"member({q.text}, {p.text})", ("bool", below)
    if kind == 1:
        return _member_root(rng, 2, 2, 2, 9)
    if kind == 2:
        m = _ri(rng, 2, 40)
        n = _ri(rng, 2, 3)
        rad = leaf(ord_int(m**n))
        return f"classify(sqrt[{n}]({rad.text}))", ("root", {"surrational"}, rad.ast, n)
    return _classify_monomial(rng, _ri(rng, 2, 3))


def _member_root(rng, n: int, nterms: int, maxdeg: int, cmax: int):
    """member(sqrt[n](r^n), p) with r > 0 and p known to lie below or above r."""
    r = binop("/", leaf(poly(rng, nterms, maxdeg, cmax)), leaf(poly(rng, nterms, maxdeg, cmax)))
    q = chain("*", [r] * n)
    k = _ri(rng, 1, 9)
    kind = _ri(rng, 0, 3)
    if kind < 2:  # r -/+ r/(w+k): just below or just above r
        p = binop("-+"[kind], r, binop("/", r, leaf(((ONE, 1), (ZERO, k)))))
        below = kind == 0
    elif kind == 2:  # r*a/b, 0 < a/b != 1
        a, b = rng.sample(range(1, 10), 2)
        p = binop("*", r, binop("/", leaf(ord_int(a)), leaf(ord_int(b))))
        below = a < b
    else:  # r itself is not below r
        p, below = r, False
    lam = "" if rng.random() < 0.7 else ", w^(w^2)"
    return f"member(sqrt[{n}]({q.text}), {p.text}{lam})", ("bool", below)


def _classify_monomial(rng, n: int):
    """Monomial radicands: an exact n-th power or decidably not one."""
    c, d = _ri(rng, 1, 6), _ri(rng, 1, 4)
    if rng.random() < 0.5:
        rad = leaf(((ord_int(d * n), c**n),))
        kinds = {"surrational"}
    else:
        rad = leaf(((ord_int(d * n + _ri(rng, 1, n - 1)), c**n),))
        kinds = {"irrational"}
    if rng.random() < 0.3:
        e = _ri(rng, 2, 5)
        rad = binop("/", rad, leaf(ord_int(e**n)))
    return f"classify(sqrt[{n}]({rad.text}))", ("root", kinds, rad.ast, n)


_PARSE_ERRORS = ["w + * {k}", "({k}*w + 1", "{k} $ w", "w ^", "H[4](w)", "{k} {k}", "member(", "w^{k})"]


def g_error(rng, j):
    """Lines that must end in a named typed error."""
    k = _ri(rng, 2, 99)
    kind = j % 4
    if kind == 0:
        return rng.choice(_PARSE_ERRORS).format(k=k), ("error", "parse")
    if kind == 1:
        line = rng.choice(["eps0", f"eps0 + {k}", f"H[4](w, w*{k})", f"H[5](w, {k})", "w ^^ w"])
        return line, ("error", "NotRepresentable")
    if kind == 2:
        q = leaf(poly(rng, 2, 2, 9))
        line = rng.choice([f"{leaf(poly(rng, 2, 2, 9)).text} / ({q.text} - ({q.text}))", "w / 0", f"{k}/(w - w)"])
        return line, ("error", "DivisionByZero")
    line = rng.choice([f"{k} ^ {_ri(rng, 400_000, 10**7)}", f"{_ri(rng, 3, 9)} ^^ {_ri(rng, 4, 9)}"])
    return line, ("error", "ResourceExceeded")


# field-deep: surrational arithmetic dominates; fractions grow.


def g_tele(rng, j):
    """Telescoping sum of 1/((w+k)*(w+k+1)); m steps through 2..12."""
    return _tele(rng, 2 + j * 11 // 18)


def g_tele_long(rng, j):
    return _tele(rng, _ri(rng, 24, 37))


def _tele(rng, m: int):
    k0 = _ri(rng, 0, 20)
    parts = []
    for k in range(k0, k0 + m):
        den = binop("*", leaf(((ONE, 1), (ZERO, k)) if k else ((ONE, 1),)),
                    leaf(((ONE, 1), (ZERO, k + 1))))
        parts.append(binop("/", leaf(ord_int(1)), den))
    n = chain("+", parts)
    return n.text, value(n)


def g_prodquot(rng, j):
    """Products and quotients of multi-term surintegers."""
    ps = [leaf(poly(rng, _ri(rng, 3, 5), 8, 10**6)) for _ in range(4)]
    if j % 3 == 0:
        n = chain("*", ps[:3])
    else:
        n = binop("/", binop("*", ps[0], ps[1]), binop("*", ps[2], ps[3]))
    return n.text, value(n)


def g_qsum(rng, j):
    """Sums of fractions with multi-term numerators and denominators."""
    fr = [binop("/", leaf(poly(rng, 3, 4, 999)), leaf(poly(rng, 2, 3, 99))) for _ in range(3 + j % 2)]
    n = fr[0]
    for i, f in enumerate(fr[1:]):
        n = binop("+-"[i % 2], n, f)
    return n.text, value(n)


def g_member_root(rng, j):
    """member() on root cuts of degree 2..5 around a multi-term fraction."""
    return _member_root(rng, 2 + j % 4, 3, 3, 9)


def g_classify_nonmono(rng, j):
    """Radicands the structural analysis does not cover: the trial search
    runs and may answer inconclusive, or the true verdict."""
    n = 2 + j % 4
    s = leaf(poly(rng, 2, 2, 5))
    rad = chain("*", [s] * n)
    if rng.random() < 0.5:
        rad = binop("+", rad, leaf(ord_int(_ri(rng, 1, 9))))
        kinds = {"inconclusive", "irrational"}
    else:
        kinds = {"inconclusive", "surrational"}
    return f"classify(sqrt[{n}]({rad.text}))", ("root", kinds, rad.ast, n)


def g_classify_mono(rng, j):
    return _classify_monomial(rng, 2 + j % 4)


# ordinal-deep: wide, deeply nested normal forms; compare-heavy.


def g_natmul_wide(rng, j):
    """Natural product of wide ordinals with nested multi-term exponents."""
    a = leaf(rand_ord(rng, 3, 4 + j % 3, 9))
    b = leaf(rand_ord(rng, 3, 4, 9))
    n = binop("*", a, b)
    return n.text, value(n)


def g_natadd_wide(rng, j):
    n = binop("+", leaf(rand_ord(rng, 3, 6, 9)), leaf(rand_ord(rng, 3, 6, 9)))
    return n.text, value(n)


def g_leftsub_deep(rng, j):
    """a -. (a +. b) == b on wide, deep a and b."""
    return _leftsub(rng, 3, 5)


def g_tower(rng, j):
    """w ^^ k with k spread over 2..247, stepping across the block."""
    lo = 2 + j * (MAX_TOWER - 1) // 12
    k = min(MAX_TOWER, lo + _ri(rng, 0, MAX_TOWER // 12 - 1))
    return f"w ^^ {k}", ("ord", tower(k))


def g_hyper_w_finite(rng, j):
    """H[n](w, k): towers for n = 4, and the first two steps for n > 4."""
    if j % 4:
        k = _ri(rng, 0, 60)
        return f"H[4](w, {k})", ("ord", tower(k))
    n, k = _ri(rng, 5, 6), _ri(rng, 0, 1)
    return f"H[{n}](w, {k})", ("ord", tower(k))


_T_ARGS = ["w", "w + 1", "w*2", "w^2", "w^w", "w^2*3 + w", "w^(w + 1) + 5"]
_L_ARGS = ["w", "w + {k}", "w*2", "w*2 + {k}", "w^2", "w^w", "w^(w^2) + w*{k}"]


def g_hyper_trans_limit(rng, j):
    """Transfinite first and second arguments: the suprema climb in nesting
    depth, so the value is past the notation boundary."""
    a = rng.choice(_T_ARGS)
    b = rng.choice(_L_ARGS).format(k=_ri(rng, 1, 9))
    return f"H[{4 + j % 3}]({a}, {b})", ("error", "NotRepresentable")


def g_hyper_fin_limit(rng, j):
    """Finite base, transfinite height: suprema of finite values give w.

    The supremum needs two samples inside the digit budget; where the second
    one, H[n](m, 2), is already too large the library may instead report
    ResourceExceeded, which is accepted there and only there."""
    m = _ri(rng, 2, 9)
    n = 4 + j % 3
    b = ["w", "w + {k}", "w*2", "w*2 + {k}"][j % 4 if n == 4 else j % 2]
    expect = ("ord", ((ONE, 1),))
    if (n == 5 and m >= 4) or (n == 6 and m >= 3):
        expect += ("ResourceExceeded",)
    return f"H[{n}]({m}, {b.format(k=_ri(rng, 1, 9))})", expect


# ------------------------------------------------------------- workloads

WORKLOADS = {
    # Short lines over every tower level plus a few percent of typed errors:
    # parsing and printing are about half the work, the arithmetic is tiny.
    # Tokenizer, printer and dispatch changes show here; GCD and interning
    # should not.
    "batch-mixed": [
        (g_ord_nat, 16), (g_si, 16), (g_q, 15), (g_cx, 6), (g_frag, 12),
        (g_leftsub, 6), (g_hyper_small, 10), (g_classify_ord, 5),
        (g_cut_small, 10), (g_error, 4),
    ],
    # Surrational-heavy lines: arithmetic dwarfs parsing, fractions grow and
    # the ordinal layer builds exponents.  GCD reduction and the term kernel
    # show here; front-end changes should not.
    "field-deep": [
        (g_tele, 18), (g_tele_long, 2), (g_prodquot, 26), (g_qsum, 20),
        (g_member_root, 20), (g_classify_nonmono, 4), (g_classify_mono, 7),
        (g_hyper_small, 2), (g_classify_ord, 1),
    ],
    # Deep and wide normal forms: the ordinal and hyper layers do nearly all
    # the work, mostly compares.  Interning and order keys show here;
    # field-level changes should not.
    "ordinal-deep": [
        (g_natmul_wide, 30), (g_leftsub_deep, 25), (g_tower, 12),
        (g_hyper_w_finite, 8), (g_hyper_trans_limit, 12), (g_hyper_fin_limit, 8),
        (g_natadd_wide, 3), (g_q, 1), (g_classify_mono, 1),
    ],
}


def corpus(workload: str, seed: int):
    """Endless deterministic stream of (line, expectation) pairs."""
    mix = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        block = [(gen, j) for gen, count in mix for j in range(count)]
        rng.shuffle(block)
        for gen, j in block:
            yield gen(rng, j)


def take(workload: str, seed: int, n: int) -> list:
    it = corpus(workload, seed)
    return [next(it) for _ in range(n)]
