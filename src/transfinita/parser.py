"""Tokenizer and parser for the expression language.

``parse`` emits postfix code rather than a tree: a list of ``(tag, span,
arg)`` instructions in which every operand comes before its operation, so
that ``expr.run`` evaluates it in one loop over a value stack (the
``expr`` docstring lists the tags).

One loop, ``_Parser.parse_expr``, reads the grammar below with the sum and
product being read in local variables.  A "(" pushes them on an explicit
stack, and a unary minus or a power's right-hand side pushes a frame that
is unwound when its operand ends, so only names with argument lists or
brackets recurse, through ``parse_atom``.

Constants fold as they are parsed.  The value of a constant phrase is
carried instead of emitted, so a natural ``+`` or ``*``
of two constants, or ``w ^`` one, is one value, and a written-out normal
form such as ``w^(w^2)*3 + 5`` is one ``const`` instruction.  ``w ^ y`` is
built directly as the one term ``w^y``, ``x * k`` with a finite ``k``
scales x's coefficients, and ``x + y`` concatenates the terms when x's last
exponent lies above y's first.  A constant is emitted only as the operand
of an instruction, with the span of its first literal.  These folds never
raise: they read no budget, and a parseable line nests powers of ``w`` at
most ``MAX_NESTING`` deep, below ``ordinal.MAX_DEPTH``, so no depth check
is needed.  Nothing else folds: the ``--oracle`` check reads ``+.`` and
``*.`` from the last instruction, ``-.``, ``-``, ``/`` and unary minus can
raise or leave the ordinals, and other powers, ``^^``, ``H`` and calls read
the evaluation context.

A phrase repeated on a line is read once: a "(" whose text starts with the
first "(" phrase of 8 or more tokens with its head (the 15 characters after
it) skips the phrase's tokens, giving its constant value or a load of it.

Grammar (EBNF; the README carries the same table):

    expr    = sum ;
    sum     = product { ("+" | "-" | "+." | "-.") product } ;
    product = unary { ("*" | "*." | "/") unary } ;
    unary   = "-" unary | power ;                       (* -w^2 = -(w^2) *)
    power   = atom [ ("^" | "^^") unary ] ;             (* right assoc *)
    atom    = NUMBER | "w" | "eps0"
            | "H" "[" expr "]" "(" expr "," expr ")"
            | IDENT "[" expr "]" "(" args ")"
            | IDENT "(" args ")" | IDENT
            | "(" expr ")" | "(" expr "," expr ")" ;    (* complex literal *)
    args    = [ expr { "," expr } ] ;
    NUMBER  = digit { digit } ;                          (* decimal only *)

Lexical rules: NUMBER is a run of Unicode decimal digits (``str.isdecimal``);
an identifier is a letter (``str.isalpha``) or ``_``, then letters, digits or
``_`` (``str.isalnum``); whitespace (``str.isspace``) separates tokens.
Tokens carry character offsets; only the spans of the instructions that
survive folding, and of a diagnostic, become a line and a column, where
a newline advances the line and restarts the column.

Every malformed input raises :class:`ParseError` carrying a
:class:`Diagnostic` with line, column and the expected-token set; the parser
never lets any other exception escape.  A line nested more than
``MAX_NESTING`` levels deep (parentheses, argument lists, unary minus and
power right-hand sides all count) is such an input, reported at the token
that opens the level past the limit.
"""

from __future__ import annotations

import re
from itertools import accumulate

from .natural import nat_add, nat_mul
from .ordinal import OMEGA, _finite, _Frozen, _make, _set


class Diagnostic(_Frozen):
    """Where a line failed to parse, why, and which tokens would have fit."""

    __slots__ = ("message", "line", "col", "expected")

    def __init__(self, message: str, line: int, col: int, expected: tuple = ()):
        _set(self, "message", message)
        _set(self, "line", line)
        _set(self, "col", col)
        _set(self, "expected", expected)

    def __str__(self) -> str:
        exp = f" (expected {', '.join(self.expected)})" if self.expected else ""
        return f"{self.line}:{self.col}: {self.message}{exp}"


class ParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        super().__init__(str(diagnostic))


# One match per token, with the blanks after it; the blanks before the
# first token are skipped by starting the scan past them.  "\s" is what
# str.isspace, str.lstrip and str.rstrip call blank, newlines included, so
# the matches tile the rest of the source and their lengths give each
# token's offset.  Every non-blank character starts a match: a bracket, ","
# or "/" (tried first, as the commonest), a number, a name, another operator,
# or an unexpected character.  "\w" also admits numeric characters such as
# "²" and "½", so a name's first character is checked with str.isalpha.
_TOKEN = re.compile(r"(?:[()\[\],/]|\d+|[^\W\d]\w*|\+\.|-\.|\*\.|\^\^|[-+*^]|\S)\s*")

# What may start an unexpected token: all but blanks, ASCII alnums, "_", the
# operators and the "." that ends "+.", "-." or "*."
_NOT_PLAIN = re.compile(r"[^\s0-9A-Za-z_+\-*/^()\[\],](?<![-+*]\.)")
# The head of each "(", the 15 characters after it, unless all are "(".
_HEAD = re.compile(r"\((?!\({15})(?=(.{15}))", re.S)


class _Tokens(list):
    """The token texts, ending with the end token's ""; ``starts`` holds the
    character offset of each, the end token's being the source length."""

    __slots__ = ("starts",)


def tokenize(source: str) -> list:
    """The texts of the tokens in ``source``, a number, a name or an
    operator each, ending with one "" for the end of input.  The list's
    ``starts`` attribute holds the character offset of each token."""
    lead = len(source) - len(source.lstrip())
    raw = _TOKEN.findall(source, lead)
    tokens = _Tokens(map(str.rstrip, raw))
    tokens.starts = starts = list(accumulate(map(len, raw), initial=lead))
    if _NOT_PLAIN.search(source, lead):
        for text, at in zip(tokens, starts):
            c = text[0]
            if not (c.isdecimal() or c.isalpha() or c in "_+-*/^()[],"):
                raise ParseError(Diagnostic(
                    f"unexpected character {c!r}", *_positions(source, (at,))[at]
                ))
    tokens.append("")
    return tokens


def _positions(source: str, offsets) -> dict:
    """``{offset: (line, col)}`` for character offsets into ``source``,
    counted from 1: a newline ends a line, and every other character counts
    one column."""
    out = {}
    line, nl, last = 1, -1, 0  # nl: offset of the last "\n" before ``last``
    for at in sorted(offsets):
        k = source.count("\n", last, at)
        if k:
            line += k
            nl = source.rfind("\n", last, at)
        out[at] = (line, at - nl)
        last = at
    return out


_SUM_OPS = frozenset(("+", "-", "+.", "-."))
_PROD_OPS = frozenset(("*", "*.", "/"))
_POW_OPS = frozenset(("^", "^^"))
# Texts that are not names: the operators, and the end token's.
_NOT_NAMES = _SUM_OPS | _PROD_OPS | _POW_OPS | frozenset(("(", ")", "[", "]", ",", ""))

# Deepest nesting a line may have, counted as unary operands open at once:
# each parenthesis, argument list, unary minus and power right-hand side
# opens one.  Only an argument list or bracket costs Python frames, 2, so 200
# levels stay well inside the default recursion limit of 1,000.
MAX_NESTING = 200

# The frames on _Parser.parse_expr's stack: (_NEG, "-", None, "-", 0) and
# (_POW, first token, left operand, operator, code mark) for an open unary
# operand, by token index, and (_PAREN, "(", im, enclosing sum and product).
_NEG, _POW, _PAREN = range(3)


class _Parser:
    """``parse_expr`` returns the value of its expression when it is
    constant, and emits nothing for it; otherwise it emits the expression's
    instructions and returns None.  Instructions carry character offsets
    until :func:`parse` turns them into lines and columns.  Tokens are read
    by text alone: an operator's text is never a name's or a number's, and
    the end token's is ""."""

    def __init__(self, source, tokens):
        self.source = source
        self.texts = tokens
        self.starts = tokens.starts
        self.pos = 0
        self.code = []
        # {head: None, or the first phrase with it} for repeated heads, or None
        self.phrases = None
        if source.count("(", 0, len(source) - 15) > 1:  # two "(" have heads
            heads = _HEAD.findall(source)
            if len(set(heads)) < len(heads):
                seen = set()
                self.phrases = {h: None for h in heads if h in seen or seen.add(h)}

    def repeat(self, start: int, depth: int):
        # (end, value) if the "(" at ``start`` repeats a phrase that fits at ``depth``
        at, source = self.starts[start], self.source
        key = source[at + 1 : at + 16]
        entry = self.phrases.get(key)
        if entry is None:
            return None
        text, levels, n, x, _ = entry
        if depth + levels >= MAX_NESTING or not source.startswith(text, at):
            return None
        if x is None:
            self.code.append(("load", at, key))
        return start + n, x

    def const(self, start: int, value) -> tuple:
        # the const instruction of a constant phrase that starts at token
        # ``start``; its span is the first literal's, past any "("
        texts = self.texts
        while texts[start] == "(":
            start += 1
        return ("const", self.starts[start], value)

    def keep(self, start: int, value) -> None:
        # emit a phrase that an instruction reads as an operand; ``start``
        # is the phrase's first token, as in self.keep(self.pos, self.parse_expr())
        if value is not None:
            self.code.append(self.const(start, value))

    def fail(self, message: str, expected=()):
        at = self.starts[self.pos]
        line, col = _positions(self.source, (at,))[at]
        raise ParseError(Diagnostic(message, line, col, tuple(expected)))

    def expect(self, text: str) -> None:
        got = self.texts[self.pos]
        if got != text:
            self.fail(f"unexpected {got or 'end of input'!r}", expected=(repr(text),))
        self.pos += 1

    def binary(self, start, x, mark, at, y):
        # emit an operation that does not fold, its constant operands first:
        # the left one's const goes at ``mark``, where the right operand's
        # code begins (a constant left operand emitted none)
        code = self.code
        if x is not None:
            code.insert(mark, self.const(start, x))
        self.keep(at + 1, y)
        code.append(("op", self.starts[at], self.texts[at]))

    def parse_expr(self, base: int = 0):
        # one sum, ``base`` levels deep, read by the module docstring's loop
        texts, starts, code, pos = self.texts, self.starts, self.code, self.pos
        source, phrases = self.source, self.phrases
        stack = []  # levels open: base + len(stack) + 1
        # the sum and the product: first token, value so far, pending
        # operator (-1 for none yet) and where the right operand's code begins
        s_start, sx, s_at, p_start, px, p_at = pos, None, -1, pos, None, -1
        s_mark = p_mark = 0
        while True:
            # a unary operand starts at pos
            if base + len(stack) >= MAX_NESTING:
                self.pos = pos
                self.fail(f"expression nested too deeply (more than {MAX_NESTING} levels)")
            start = pos
            text = texts[pos]
            pos += 1
            if text == "-":  # binds looser than the power operators: -w^2 = -(w^2)
                stack.append((_NEG, start, None, start, 0))
                continue
            if text == "(" and not (phrases and (hit := self.repeat(start, base + len(stack)))):
                # im: where the imaginary part of (re, im) starts, -1 until a ","
                outer = (s_start, sx, s_at, s_mark, p_start, px, p_at, p_mark)
                stack.append((_PAREN, start, -1, outer))
                s_start, sx, s_at, p_start, px, p_at = pos, None, -1, pos, None, -1
                continue
            if text == "(":
                pos, x = hit
            elif text == "w":
                x = OMEGA
            elif text.isdecimal():
                try:
                    x = _finite(int(text))
                except ValueError:  # longer than the interpreter's int-string limit
                    self.pos = start
                    self.fail(f"number literal is too long ({len(text)} digits)")
            else:
                self.pos = start
                x = self.parse_atom(base + len(stack) + 1)
                pos = self.pos
            while True:
                # the atom or parenthesis that starts at ``start`` has ended
                op = texts[pos]
                if op in _POW_OPS:  # right assoc
                    stack.append((_POW, start, x, pos, len(code)))
                    pos += 1
                    break
                # the unary operand ends, and with it every frame it closes
                while stack and stack[-1][0] != _PAREN:
                    kind, b_start, bx, at, mark = stack.pop()
                    if kind == _NEG:
                        self.keep(at + 1, x)
                        code.append(("neg", starts[at], None))
                        x = None
                    elif texts[at] == "^" and bx == OMEGA and x is not None:
                        x = _make(((x, 1),))  # w^y, one term
                    else:
                        self.binary(b_start, bx, mark, at, x)
                        x = None
                if p_at >= 0:
                    if texts[p_at] == "*" and px is not None and x is not None:
                        # natural product; a finite x scales px's coefficients
                        if len(x) == 1 and not x[0][0]:
                            k = x[0][1]
                            x = _make(tuple([(e, c * k) for e, c in px]))
                        else:
                            x = nat_mul(px, x)
                    else:
                        self.binary(p_start, px, p_mark, p_at, x)
                        x = None
                if op in _PROD_OPS:
                    px, p_at, p_mark = x, pos, len(code)
                    pos += 1
                    break
                if s_at >= 0:
                    if texts[s_at] == "+" and sx is not None and x is not None:
                        # natural sum; terms already in order just concatenate
                        if sx and x and sx[-1][0] > x[0][0]:
                            x = _make((*sx, *x))
                        else:
                            x = nat_add(sx, x)
                    else:
                        self.binary(s_start, sx, s_mark, s_at, x)
                        x = None
                if op in _SUM_OPS:
                    sx, s_at, s_mark = x, pos, len(code)
                    pos += 1
                    p_start, p_at = pos, -1
                    break
                # the sum ends: it is the whole expression, or it closes a "("
                if not stack:
                    self.pos = pos
                    return x
                _, start, im, outer = stack.pop()
                if op == "," and im < 0:  # a complex literal (re, im)
                    self.keep(start + 1, x)
                    pos += 1
                    stack.append((_PAREN, start, pos, outer))
                    s_start, sx, s_at, p_start, px, p_at = pos, None, -1, pos, None, -1
                    break
                if op != ")":
                    self.pos = pos
                    self.expect(")")
                pos += 1
                s_start, sx, s_at, s_mark, p_start, px, p_at, p_mark = outer
                if im >= 0:
                    self.keep(im, x)
                    code.append(("call", starts[start], ("complex", 2)))
                    x = None
                if phrases and pos - start >= 8:
                    head = starts[start] + 1
                    key = source[head : head + 15]
                    if phrases.get(key, 0) is None:  # the first phrase with this repeated head
                        phrase = source[head - 1 : starts[pos - 1] + 1]
                        last = None if x is not None else code[-1]
                        phrases[key] = (phrase, sum(map(phrase.count, "(-^[")), pos - start, x, last)

    def parse_atom(self, depth: int):
        # a name with its argument lists, or eps0, that opens level ``depth``
        pos = self.pos
        text = self.texts[pos]
        self.pos = pos + 1
        code, span = self.code, self.starts[pos]
        if text in _NOT_NAMES:
            self.pos = pos
            self.fail(
                f"unexpected {text or 'end of input'!r}",
                expected=("number", "'w'", "'eps0'", "name", "'('", "'-'"),
            )
        elif text == "eps0":
            code.append(("eps0", span, None))
        else:
            nxt = self.texts[self.pos]
            if nxt != "[" and nxt != "(":
                code.append(("var", span, text))
                return None
            # name[bracket](args): the bracket is the first argument
            nargs = 0
            if nxt == "[":
                self.pos += 1
                self.keep(self.pos, self.parse_expr(depth))
                self.expect("]")
                nargs = 1
            self.expect("(")
            if self.texts[self.pos] != ")":
                self.keep(self.pos, self.parse_expr(depth))
                nargs += 1
                while self.texts[self.pos] == ",":
                    self.pos += 1
                    self.keep(self.pos, self.parse_expr(depth))
                    nargs += 1
            self.expect(")")
            if text == "H" and nxt == "[":
                if nargs != 3:
                    self.fail("H[...] takes exactly two arguments")
                code.append(("H", span, None))
            else:
                code.append(("call", span, (text, nargs)))
        return None


def parse(source: str) -> list:
    """Parse a single expression to postfix code; raises ParseError with a
    Diagnostic."""
    p = _Parser(source, tokenize(source))
    x = p.parse_expr()
    text = p.texts[p.pos]
    if text:
        p.fail(f"trailing input starting at {text!r}")
    p.keep(0, x)
    code = p.code
    if p.phrases:  # a save after each loaded phrase's final instruction, last first
        saves = {(code.index(p.phrases[k][4]), k) for tag, _, k in code if tag == "load"}
        for i, key in sorted(saves, reverse=True):
            code.insert(i + 1, ("save", code[i][1], key))
    at = _positions(source, [i[1] for i in code])
    return [(tag, at[i], arg) for tag, i, arg in code]


def try_parse(source: str):
    """(code, None) on success, (None, Diagnostic) on failure; never raises."""
    try:
        return parse(source), None
    except ParseError as err:
        return None, err.diagnostic
