"""Recursive-descent parser for the expression language.

Grammar (whitespace insignificant, indices positive decimal integers)::

    expr       := term (('+'|'-') term)*
    term       := factor (('*'|'/') factor)*
    factor     := ('-' factor) | primary ('^' ['-'] integer)?
    primary    := number | coordinate | func '(' expr ')' | '(' expr ')'
    func       := sin | cos | exp | ln | sqrt
    number     := integer | decimal
    coordinate := 'x(' i ')'
                | 'y(' s [';' j (',' j)*] ')'
                | 'v(' s ';' [j (',' j)*] '|' p ')'
                | 'P(' s ';' j (',' j)* ')'

Rationals are written with the division operator (``1/2``); decimal
literals are converted to exact fractions. ``a/b^k`` is read as ``a*b^-k``,
so ``N/(D)^k`` holds one reciprocal atom of ``D``. Jet indices may be
written in any order and are sorted into the canonical representative.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import ParseError
from .context import FUNCTIONS, ChartContext, base, jet, mom, vel
from .expr import Expr

_PUNCT = set("();,|+-*/^")


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
                toks.append(_Token("num", Fraction(text[i:j]), i))
            else:
                toks.append(_Token("int", int(text[i:j]), i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            toks.append(_Token("name", text[i:j], i))
            i = j
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

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.value!r}", t.pos)
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
        """A factor raised to ``sign`` times its exponent."""
        if self.peek().kind == "-":
            self.next()
            return -self.factor(sign)
        e = self.primary()
        k = 1
        if self.peek().kind == "^":
            self.next()
            if self.peek().kind == "-":
                self.next()
                sign = -sign
            k = self.expect("int").value
        return e if sign * k == 1 else e ** (sign * k)

    def primary(self) -> Expr:
        t = self.next()
        if t.kind == "int":
            return Expr.const(self.ctx, t.value)
        if t.kind == "num":
            return Expr.const(self.ctx, t.value)
        if t.kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if t.kind == "name":
            if t.value in FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Expr.func(self.ctx, t.value, arg)
            if t.value in ("x", "y", "v", "P"):
                return self.coordinate(t)
            raise ParseError(f"unknown name {t.value!r}", t.pos)
        raise ParseError(f"unexpected token {t.value!r}", t.pos)

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
