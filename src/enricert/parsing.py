"""Recursive-descent parser for coordinate and coefficient expressions.

Grammar (usual precedence, ^ binds tightest, left-assoc * and /):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('-' | '+') factor | power
    power  := atom ('^' exponent)?
    atom   := INT | 'i' | 'zeta8' | VAR | '(' expr ')'

``i`` denotes sqrt(-1) = zeta8^2 and ``zeta8`` the primitive 8th root itself.
Variables are the table names (w, y, z, W, Y, Z, A..F, alpha).  Exponents are
integer literals, optionally negative, of absolute value at most
poly.DEGREE_CAP.  An integer literal longer than the interpreter's int
string-conversion limit is an error too.  Errors carry the character
position.
"""

from __future__ import annotations

from typing import List, Tuple

from .errors import ParseError
from .field import SQRT_M1, ZETA8, int_literal
from .poly import DEGREE_CAP, RatFunc, TABLE, VarTable

_SYMBOLS = set("+-*/^()")


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(("sym", ch, pos))
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            tokens.append(("int", text[start:pos], start))
            continue
        if ch.isalpha():
            start = pos
            while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(("name", text[start:pos], start))
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, table: VarTable):
        self.tokens = _tokenize(text)
        self.k = 0
        self.table = table

    def peek(self) -> Tuple[str, str, int]:
        return self.tokens[self.k]

    def advance(self) -> Tuple[str, str, int]:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, value: str) -> None:
        kind, text, pos = self.peek()
        if kind != "sym" or text != value:
            raise ParseError(f"expected {value!r}, found {text or 'end of input'!r}", pos)
        self.advance()

    def parse(self) -> RatFunc:
        value = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {text!r}", pos)
        return value

    def expr(self) -> RatFunc:
        value = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "sym" and text in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if text == "+" else value - rhs
            else:
                return value

    def term(self) -> RatFunc:
        value = self.factor()
        while True:
            kind, text, pos = self.peek()
            if kind == "sym" and text in "*/":
                self.advance()
                rhs = self.factor()
                if text == "/":
                    if rhs.is_zero():
                        raise ParseError("division by zero", pos)
                    value = value / rhs
                else:
                    value = value * rhs
            else:
                return value

    def factor(self) -> RatFunc:
        kind, text, _ = self.peek()
        if kind == "sym" and text in "+-":
            self.advance()
            inner = self.factor()
            return inner if text == "+" else -inner
        return self.power()

    def power(self) -> RatFunc:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "sym" and text == "^":
            self.advance()
            n = self.exponent()
            if n < 0 and base.is_zero():
                _, _, pos = self.peek()
                raise ParseError("zero raised to a negative power", pos)
            return base ** n
        return base

    def exponent(self) -> int:
        sign = 1
        kind, text, pos = self.peek()
        start = pos
        if kind == "sym" and text in "+-":
            self.advance()
            sign = -1 if text == "-" else 1
            kind, text, pos = self.peek()
        if kind != "int":
            raise ParseError(f"expected integer exponent, found {text!r}", pos)
        self.advance()
        # Compare lengths first so a huge literal is never converted.
        digits = text.lstrip("0") or "0"
        if len(digits) > len(str(DEGREE_CAP)) or int(digits) > DEGREE_CAP:
            raise ParseError(f"exponent exceeds the degree cap {DEGREE_CAP}", start)
        return sign * int(digits)

    def atom(self) -> RatFunc:
        kind, text, pos = self.advance()
        if kind == "int":
            return RatFunc.const(int_literal(text, pos), self.table)
        if kind == "name":
            if text == "i":
                return RatFunc.const(SQRT_M1, self.table)
            if text == "zeta8":
                return RatFunc.const(ZETA8, self.table)
            if text in self.table.names:
                return RatFunc.var(text, self.table)
            raise ParseError(f"unknown variable {text!r}", pos)
        if kind == "sym" and text == "(":
            value = self.expr()
            self.expect(")")
            return value
        raise ParseError(
            f"expected a value, found {text or 'end of input'!r}", pos
        )


def parse_expression(text: str, table: VarTable = TABLE) -> RatFunc:
    """Parse ``text`` into a RatFunc over the engine's variable table."""
    return _Parser(text, table).parse()
