"""Tokenizer and precedence-climbing parser for the expression language.

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

Every malformed input raises :class:`ParseError` carrying a
:class:`Diagnostic` with line, column and the expected-token set; the parser
never lets any other exception escape.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import (
    BinOp,
    Eps0Sentinel,
    Expr,
    FuncApp,
    HyperApp,
    NatLiteral,
    Omega,
    UnaryNeg,
    Var,
)


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


@dataclass(frozen=True)
class Token:
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    line: int
    col: int


_TWO_CHAR = ("+.", "-.", "*.", "^^")
_ONE_CHAR = "+-*/^()[],"


def tokenize(source: str) -> list:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdecimal():
            j = i
            while j < n and source[j].isdecimal():
                j += 1
            tokens.append(Token("num", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("ident", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        two = source[i : i + 2]
        if two in _TWO_CHAR:
            tokens.append(Token("op", two, line, start_col))
            i += 2
            col += 2
            continue
        if ch in _ONE_CHAR:
            tokens.append(Token("op", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(Diagnostic(f"unexpected character {ch!r}", line, col))
    tokens.append(Token("end", "", line, col))
    return tokens


_SUM_OPS = ("+", "-", "+.", "-.")
_PROD_OPS = ("*", "*.", "/")
_POW_OPS = ("^", "^^")


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "end":
            self.pos += 1
        return t

    def fail(self, message: str, expected=()):
        t = self.peek()
        raise ParseError(Diagnostic(message, t.line, t.col, tuple(expected)))

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.kind == "op" and t.text == text:
            return self.advance()
        got = t.text or "end of input"
        self.fail(f"unexpected {got!r}", expected=(repr(text),))

    def parse_expr(self) -> Expr:
        return self.parse_sum()

    def parse_sum(self) -> Expr:
        lhs = self.parse_product()
        while self.peek().kind == "op" and self.peek().text in _SUM_OPS:
            op = self.advance()
            rhs = self.parse_product()
            lhs = BinOp(op.text, lhs, rhs, span=(op.line, op.col))
        return lhs

    def parse_product(self) -> Expr:
        lhs = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in _PROD_OPS:
            op = self.advance()
            rhs = self.parse_unary()
            lhs = BinOp(op.text, lhs, rhs, span=(op.line, op.col))
        return lhs

    def parse_unary(self) -> Expr:
        # unary minus binds looser than the power operators: -w^2 = -(w^2)
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.advance()
            return UnaryNeg(self.parse_unary(), span=(t.line, t.col))
        return self.parse_power()

    def parse_power(self) -> Expr:
        lhs = self.parse_atom()
        if self.peek().kind == "op" and self.peek().text in _POW_OPS:
            op = self.advance()
            rhs = self.parse_unary()  # right associative
            return BinOp(op.text, lhs, rhs, span=(op.line, op.col))
        return lhs

    def parse_atom(self) -> Expr:
        t = self.peek()
        span = (t.line, t.col)
        if t.kind == "num":
            self.advance()
            return NatLiteral(int(t.text), span=span)
        if t.kind == "ident":
            self.advance()
            if t.text == "w":
                return Omega(span=span)
            if t.text == "eps0":
                return Eps0Sentinel(span=span)
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "[":
                self.advance()
                bracket = self.parse_expr()
                self.expect("]")
                self.expect("(")
                args = self.parse_args()
                self.expect(")")
                if t.text == "H":
                    if len(args) != 2:
                        self.fail("H[...] takes exactly two arguments")
                    return HyperApp(bracket, args[0], args[1], span=span)
                return FuncApp(t.text, (bracket, *args), span=span)
            if nxt.kind == "op" and nxt.text == "(":
                self.advance()
                args = self.parse_args()
                self.expect(")")
                return FuncApp(t.text, tuple(args), span=span)
            return Var(t.text, span=span)
        if t.kind == "op" and t.text == "(":
            self.advance()
            first = self.parse_expr()
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == ",":
                self.advance()
                second = self.parse_expr()
                self.expect(")")
                return FuncApp("complex", (first, second), span=span)
            self.expect(")")
            return first
        got = t.text or "end of input"
        self.fail(
            f"unexpected {got!r}",
            expected=("number", "'w'", "'eps0'", "name", "'('", "'-'"),
        )

    def parse_args(self) -> list:
        if self.peek().kind == "op" and self.peek().text == ")":
            return []
        args = [self.parse_expr()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.advance()
            args.append(self.parse_expr())
        return args


def parse(source: str) -> Expr:
    """Parse a single expression; raises ParseError with a Diagnostic."""
    p = _Parser(tokenize(source))
    e = p.parse_expr()
    t = p.peek()
    if t.kind != "end":
        raise ParseError(
            Diagnostic(f"trailing input starting at {t.text!r}", t.line, t.col)
        )
    return e


def try_parse(source: str):
    """(expr, None) on success, (None, Diagnostic) on failure; never raises."""
    try:
        return parse(source), None
    except ParseError as err:
        return None, err.diagnostic
