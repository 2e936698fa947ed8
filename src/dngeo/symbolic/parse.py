"""Recursive-descent parser for scalar expressions.

Grammar (EBNF, also documented in the README):

    expr    = term , { ("+" | "-") , term } ;
    term    = unary , { ("*" | "/") , unary } ;
    unary   = "-" , unary | power ;
    power   = atom , [ "^" , integer ] ;
    atom    = identifier | integer | "i" | "(" , expr , ")" ;

Identifiers match [a-zA-Z][a-zA-Z0-9_]* and integers [0-9]+, in ASCII only;
"^" binds tighter than "*"/"/", which bind tighter than "+"/"-"; "i" is the
imaginary unit and only legal in complex mode.  Rational literals arise from
integer division.  Parsing then printing then re-parsing is the identity on
canonical forms.

Each sub-expression is evaluated as a Polynomial, in its integer form:
literals, variables, "i", sums, differences, products, powers and divisions
by a nonzero constant.  Only a division by a non-constant turns its operands
into ScalarExprs, whose arithmetic takes gcds, and the rest of that
sub-expression is evaluated on them.  A polynomial result becomes one
ScalarExpr at the end, over denominator 1.  Both routes give the same
canonical scalar as ScalarExpr arithmetic on the whole tree.
"""

from __future__ import annotations

import string

from ..errors import ExprSyntaxError, UnknownVariableError, ZeroDenominatorError
from .gaussian import GaussianRational
from .poly import Polynomial, poly_one
from .scalar import Chart, ScalarExpr

_OPS = set("+-*/^()")
_DIGITS = frozenset(string.digits)  # ASCII only, unlike str.isdigit
_LETTERS = frozenset(string.ascii_letters)
_WORD = _LETTERS | _DIGITS | {"_"}


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch in _LETTERS:
            j = i
            while j < n and text[j] in _WORD:
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", text, i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Values are Polynomials until a division by a non-constant, and
    ScalarExprs from there on (see the module docstring)."""

    def __init__(self, text: str, chart: Chart):
        self.text = text
        self.chart = chart
        self.one = poly_one(chart.dim)
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                self.text,
                tok[2],
            )
        return self.advance()

    def scalar(self, value) -> ScalarExpr:
        return value if type(value) is ScalarExpr else ScalarExpr(self.chart, value, self.one)

    def same(self, a, b):
        """a and b as one type: Polynomials when both are."""
        if type(a) is type(b):
            return a, b
        return self.scalar(a), self.scalar(b)

    def parse(self) -> ScalarExpr:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprSyntaxError(f"unexpected {tok[1]!r}", self.text, tok[2])
        return self.scalar(value)

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            value, rhs = self.same(value, self.term())
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.advance()
            rhs = self.unary()
            if op == "*":
                value, rhs = self.same(value, rhs)
                value = value * rhs
                continue
            if rhs.is_zero():
                raise ExprSyntaxError("division by the zero polynomial", self.text, pos)
            if type(value) is Polynomial and type(rhs) is Polynomial and rhs.is_constant():
                value = value.scale(1 / rhs.leading()[1])
            else:
                value = self.scalar(value) / self.scalar(rhs)
        return value

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return -self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("int")
            return base ** int(tok[1])
        return base

    def atom(self):
        tok = self.advance()
        kind, value, pos = tok
        dim = self.chart.dim
        if kind == "int":
            return Polynomial.const(dim, int(value))
        if kind == "ident":
            if value == "i" and self.chart.mode == "complex":
                return Polynomial.const(dim, GaussianRational(0, 1))
            if value not in self.chart.variables:
                raise UnknownVariableError(
                    f"unknown variable {value!r}", self.text, pos
                )
            return Polynomial.variable(dim, self.chart.index(value))
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        raise ExprSyntaxError(
            f"unexpected {value or 'end of input'!r}", self.text, pos
        )


def parse_scalar(text: str, chart: Chart) -> ScalarExpr:
    """Parse expression text into a canonical ScalarExpr on the chart."""
    try:
        return _Parser(text, chart).parse()
    except ZeroDenominatorError:
        raise ExprSyntaxError("division by the zero polynomial", text, 0) from None
