"""Recursive-descent parser for the expression language.

Grammar (whitespace insignificant, indices positive decimal integers)::

    expr       := term (('+'|'-') term)*
    term       := factor (('*'|'/') factor)*
    factor     := '-'* primary ('^' ['-'] integer)?
    primary    := number | coordinate | func '(' expr ')' | '(' expr ')'
    func       := sin | cos | exp | ln | sqrt
    number     := integer | decimal
    coordinate := 'x(' i ')'
                | 'y(' s [';' j (',' j)*] ')'
                | 'v(' s ';' [j (',' j)*] '|' p ')'
                | 'P(' s ';' j (',' j)* ')'

Rationals are written with the division operator (``1/2``); decimal
literals are converted to exact fractions. ``a/b^k`` is read as ``a*b^-k``,
so ``N/(D)^k`` holds one reciprocal atom of ``D``, and the grouped terms of
canonical text, ``(N)*(D)^-k``, are products like any other. Jet indices
may be written in any order and are sorted into the canonical
representative. Numbers take only the digits ``int`` reads (``str.isdecimal``),
and parentheses and function calls nest at most ``MAX_NESTING`` deep.
"""

from __future__ import annotations

import re
from fractions import Fraction

from ..errors import ParseError
from .context import FUNCTIONS, ChartContext, base, jet, mom, vel
from .expr import Expr

_PUNCT = set("();,|+-*/^")
_NUMBER = re.compile(r"\d+(\.\d*)?")  # \d is str.isdecimal: the digits int() reads
_NAME = re.compile(r"[^\W_]+")  # the str.isalnum characters
MAX_NESTING = 100  # parentheses and function calls, one inside another


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos

    def __str__(self):
        return "end of input" if self.kind == "end" else repr(self.value)


def _tokenize(text: str) -> list[_Token]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdecimal():
            mo = _NUMBER.match(text, i)
            toks.append(_Token("num", Fraction(mo[0]), i) if mo[1] else
                        _Token("int", int(mo[0]), i))
            i = mo.end()
            continue
        if c.isalpha():
            mo = _NAME.match(text, i)
            toks.append(_Token("name", mo[0], i))
            i = mo.end()
            continue
        if c in _PUNCT:
            toks.append(_Token(c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(_Token("end", None, n))
    return toks


class _Parser:
    def __init__(self, text: str, ctx: ChartContext):
        self.text = text
        self.ctx = ctx
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t}", t.pos)
        return t

    def parse(self) -> Expr:
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected trailing input {t.value!r}", t.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind in "+-":
            if self.next().kind == "+":
                e = e + self.term()
            else:
                e = e - self.term()
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek().kind in "*/":
            e = e * self.factor(1 if self.next().kind == "*" else -1)
        return e

    def factor(self, sign: int = 1) -> Expr:
        """A factor raised to ``sign`` times its exponent; a run of unary
        minus signs negates it once if the run is odd."""
        minus = 0
        while self.peek().kind == "-":
            self.next()
            minus += 1
        e = self.primary()
        k = 1
        if self.peek().kind == "^":
            self.next()
            if self.peek().kind == "-":
                self.next()
                sign = -sign
            k = self.expect("int").value
        e = e if sign * k == 1 else e ** (sign * k)
        return -e if minus % 2 else e

    def nested(self, t: _Token) -> Expr:
        """The expression inside parentheses opened at ``t``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING}", t.pos)
        e = self.expr()
        self.expect(")")
        self.depth -= 1
        return e

    def primary(self) -> Expr:
        t = self.next()
        if t.kind in ("int", "num"):
            return Expr.const(self.ctx, t.value)
        if t.kind == "(":
            return self.nested(t)
        if t.kind == "name":
            if t.value in FUNCTIONS:
                self.expect("(")
                return Expr.func(self.ctx, t.value, self.nested(t))
            if t.value in ("x", "y", "v", "P"):
                return self.coordinate(t)
            raise ParseError(f"unknown name {t.value!r}", t.pos)
        raise ParseError(f"unexpected {t}", t.pos)

    def index(self) -> int:
        t = self.expect("int")
        return t.value

    def index_list(self) -> list[int]:
        out = [self.index()]
        while self.peek().kind == ",":
            self.next()
            out.append(self.index())
        return out

    def coordinate(self, t: _Token) -> Expr:
        self.expect("(")
        if t.value == "x":
            i = self.index()
            self.expect(")")
            return Expr.coord(self.ctx, base(i))
        sigma = self.index()
        if t.value == "y":
            J = []
            if self.peek().kind == ";":
                self.next()
                J = self.index_list()
            self.expect(")")
            return Expr.coord(self.ctx, jet(sigma, J))
        if t.value == "v":
            self.expect(";")
            J = [] if self.peek().kind == "|" else self.index_list()
            self.expect("|")
            p = self.index()
            self.expect(")")
            return Expr.coord(self.ctx, vel(sigma, J, p))
        # momentum: at least one index required
        self.expect(";")
        J = self.index_list()
        self.expect(")")
        return Expr.coord(self.ctx, mom(sigma, J))


def parse_expr(text: str, ctx: ChartContext) -> Expr:
    """Parse expression text into a canonical expression."""
    return _Parser(text, ctx).parse()
