"""Tokenizer and recursive-descent parser for the expression language.

``parse`` emits postfix code rather than a tree: a list of ``(tag, span,
arg)`` instructions in which every operand comes before its operation, so
that ``expr.run`` evaluates it in one loop over a value stack (the
``expr`` docstring lists the tags).  Each grammar method appends the
instructions of its phrase.

Constants fold as they are parsed (``_Parser.emit_op``): a natural ``+``
or ``*`` of two ``const`` instructions, or ``w ^`` one, becomes one
``const`` with the left operand's span, so a written-out normal form such
as ``w^(w^2)*3 + 5`` is one instruction.  ``w ^ y`` is built directly as
the one term ``w^y``.  These never raise: they read no budget, and a
parseable line nests powers of ``w`` at most ``MAX_NESTING`` deep, below
``ordinal.MAX_DEPTH``, so no depth check is needed.  Nothing else folds:
the ``--oracle`` check reads ``+.`` and ``*.`` from the last instruction,
``-.``, ``-``, ``/`` and unary minus can raise or leave the ordinals, and
other powers, ``^^``, ``H`` and calls read the evaluation context.

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
``_`` (``str.isalnum``); whitespace separates tokens, and a newline advances
the line and restarts the column.

Every malformed input raises :class:`ParseError` carrying a
:class:`Diagnostic` with line, column and the expected-token set; the parser
never lets any other exception escape.  A line nested more than
``MAX_NESTING`` levels deep (parentheses, argument lists, unary minus and
power right-hand sides all count) is such an input, reported at the token
that opens the level past the limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .natural import nat_add, nat_mul
from .ordinal import OMEGA, _finite, _make


@dataclass(frozen=True)
class Diagnostic:
    message: str
    line: int
    col: int
    expected: tuple = ()

    def __str__(self) -> str:
        exp = f" (expected {', '.join(self.expected)})" if self.expected else ""
        return f"{self.line}:{self.col}: {self.message}{exp}"


class ParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic
        super().__init__(str(diagnostic))


# One match per token.  Blanks before a token are skipped: every blank but
# "\n", which counts lines.  Every other character is a number, a name, an
# operator, or unexpected (the last group), so the match never backtracks
# into the blanks and the end of the text always ends the scan.  "\w" also
# admits numeric characters such as "²" and "½", so a name's first character
# is checked with str.isalpha.
_TOKEN = re.compile(
    r"[^\S\n]*(?:(\d+)|([^\W\d]\w*)|(\+\.|-\.|\*\.|\^\^|[-+*/^()\[\],])|(\n)|(\Z)|(\S))"
)
_KINDS = (None, "num", "ident", "op")


def tokenize(source: str) -> list:
    """``(kind, text, line, col)`` tuples, kind one of "num", "ident", "op",
    ending with one ``("end", "", line, col)`` token."""
    tokens = []
    append = tokens.append
    line, before = 1, -1  # before: index of the character before the line
    for m in _TOKEN.finditer(source):
        i = m.lastindex
        if i < 4 and (i != 2 or m[2][0].isalpha() or m[2][0] == "_"):
            append((_KINDS[i], m[i], line, m.start(i) - before))
        elif i == 4:
            line += 1
            before = m.start(4)
        elif i == 5:
            break
        else:  # an unexpected character, or a name that starts with one
            raise ParseError(Diagnostic(
                f"unexpected character {m[i][0]!r}", line, m.start(i) - before
            ))
    append(("end", "", line, len(source) - before))
    return tokens


_SUM_OPS = frozenset(("+", "-", "+.", "-."))
_PROD_OPS = frozenset(("*", "*.", "/"))
_POW_OPS = frozenset(("^", "^^"))

# Deepest nesting a line may have, counted as parse_unary calls open at
# once: each parenthesis, argument list, unary minus and power right-hand
# side opens one.  A level costs at most 4 Python frames (unary, atom, sum,
# product), so 200 levels stay well inside the default recursion limit of
# 1,000 even under a test runner's stack.
MAX_NESTING = 200


class _Parser:
    # Tokens are compared by text alone: an operator's text is never a
    # name's or a number's, and the end token's is "".
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.code = []
        self.emit = self.code.append

    def emit_op(self, span, op: str) -> None:
        # fold two constant operands of natural + and *, and of powers of
        # w (see the module docstring for why these and no others)
        code = self.code
        x, y = code[-2], code[-1]  # the last instruction of each operand
        if x[0] == "const" and y[0] == "const":
            if op == "+":
                v = nat_add(x[2], y[2])
            elif op == "*":
                v = nat_mul(x[2], y[2])
            elif op == "^" and x[2] == OMEGA:
                v = _make(((y[2], 1),))  # w^y, one term
            else:
                v = None
            if v is not None:
                code.pop()
                code[-1] = ("const", x[1], v)
                return
        self.emit(("op", span, op))

    def fail(self, message: str, expected=()):
        _, _, line, col = self.tokens[self.pos]
        raise ParseError(Diagnostic(message, line, col, tuple(expected)))

    def expect(self, text: str) -> None:
        got = self.tokens[self.pos][1]
        if got != text:
            self.fail(f"unexpected {got or 'end of input'!r}", expected=(repr(text),))
        self.pos += 1

    def parse_sum(self) -> None:
        self.parse_product()
        t = self.tokens[self.pos]
        while t[1] in _SUM_OPS:
            self.pos += 1
            self.parse_product()
            self.emit_op(t[2:], t[1])
            t = self.tokens[self.pos]

    parse_expr = parse_sum

    def parse_product(self) -> None:
        self.parse_unary()
        t = self.tokens[self.pos]
        while t[1] in _PROD_OPS:
            self.pos += 1
            self.parse_unary()
            self.emit_op(t[2:], t[1])
            t = self.tokens[self.pos]

    def parse_unary(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested too deeply (more than {MAX_NESTING} levels)")
        # unary minus binds looser than the power operators: -w^2 = -(w^2)
        t = self.tokens[self.pos]
        if t[1] == "-":
            self.pos += 1
            self.parse_unary()
            self.emit(("neg", t[2:], None))
        else:
            self.parse_atom()
            t = self.tokens[self.pos]
            if t[1] in _POW_OPS:
                self.pos += 1
                self.parse_unary()  # right assoc
                self.emit_op(t[2:], t[1])
        self.depth -= 1

    def parse_atom(self) -> None:
        kind, text, line, col = self.tokens[self.pos]
        span = (line, col)
        if kind == "num":
            self.pos += 1
            try:
                value = int(text)
            except ValueError:  # longer than the interpreter's int-string limit
                raise ParseError(Diagnostic(
                    f"number literal is too long ({len(text)} digits)", line, col
                )) from None
            self.emit(("const", span, _finite(value)))
        elif kind == "ident":
            self.pos += 1
            nxt = self.tokens[self.pos][1]
            if text == "w":
                self.emit(("const", span, OMEGA))
            elif text == "eps0":
                self.emit(("eps0", span, None))
            elif nxt != "[" and nxt != "(":
                self.emit(("var", span, text))
            else:
                # name[bracket](args): the bracket is the first argument
                nargs = 0
                if nxt == "[":
                    self.pos += 1
                    self.parse_expr()
                    self.expect("]")
                    nargs = 1
                self.expect("(")
                if self.tokens[self.pos][1] != ")":
                    self.parse_expr()
                    nargs += 1
                    while self.tokens[self.pos][1] == ",":
                        self.pos += 1
                        self.parse_expr()
                        nargs += 1
                self.expect(")")
                if text == "H" and nxt == "[":
                    if nargs != 3:
                        self.fail("H[...] takes exactly two arguments")
                    self.emit(("H", span, None))
                else:
                    self.emit(("call", span, (text, nargs)))
        elif text == "(":
            self.pos += 1
            self.parse_expr()
            if self.tokens[self.pos][1] == ",":
                self.pos += 1
                self.parse_expr()
                self.expect(")")
                self.emit(("call", span, ("complex", 2)))
            else:
                self.expect(")")
        else:
            self.fail(
                f"unexpected {text or 'end of input'!r}",
                expected=("number", "'w'", "'eps0'", "name", "'('", "'-'"),
            )


def parse(source: str) -> list:
    """Parse a single expression to postfix code; raises ParseError with a
    Diagnostic."""
    p = _Parser(tokenize(source))
    p.parse_expr()
    kind, text, line, col = p.tokens[p.pos]
    if kind != "end":
        raise ParseError(Diagnostic(f"trailing input starting at {text!r}", line, col))
    return p.code


def try_parse(source: str):
    """(code, None) on success, (None, Diagnostic) on failure; never raises."""
    try:
        return parse(source), None
    except ParseError as err:
        return None, err.diagnostic
