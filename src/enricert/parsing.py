"""Recursive-descent parser for coordinate and coefficient expressions.

Grammar (usual precedence, ^ binds tightest, left-assoc * and /):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('-' | '+') factor | power
    power  := atom ('^' exponent)?
    atom   := INT | 'i' | 'zeta8' | VAR | '(' expr ')'

``i`` denotes sqrt(-1) = zeta8^2 and ``zeta8`` the primitive 8th root itself.
Variables are the names of poly's one fixed layout, poly.VARIABLES (w, y, z,
W, Y, Z, A..F, alpha), so the parser takes no variable table.  Exponents are
integer literals, optionally negative, of absolute value at most
poly.DEGREE_CAP.  Digits are the ASCII digits 0-9 only, as in scalars; any
other digit character is an unexpected character.  An integer literal
longer than the interpreter's int string-conversion limit is an error too.
Parentheses and unary signs nest at most MAX_NESTING deep, so a deeply
nested input is a ParseError and never exhausts the interpreter's recursion
limit.  Errors carry the character position.

Every value is a RatFunc, and every operation is RatFunc arithmetic.  A
product, quotient or power of constants, variables and their powers is one
term over one term, which RatFunc builds from the exponent keys alone.
"""

from __future__ import annotations

from typing import List, Tuple

from .errors import ParseError
from .field import SQRT_M1, ZETA8, int_literal
from .poly import DEGREE_CAP, RatFunc, VARIABLES

_SYMBOLS = set("+-*/^()")
# ASCII only: str.isdigit also holds for other digits, such as "²" or "٣"
_DIGITS = "0123456789"

#: Deepest nesting of parentheses and unary signs together.  Each level of
#: parentheses costs five frames of recursion (expr, term, factor, power,
#: atom), so this stays far below the default recursion limit of 1000.
MAX_NESTING = 100


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
        if ch in _DIGITS:
            start = pos
            while pos < len(text) and text[pos] in _DIGITS:
                pos += 1
            tokens.append(("int", text[start:pos], start))
            continue
        if ch.isalpha():
            start = pos
            while pos < len(text) and (
                text[pos].isalpha() or text[pos] in _DIGITS or text[pos] == "_"
            ):
                pos += 1
            tokens.append(("name", text[start:pos], start))
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0

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

    def nest(self, pos: int) -> None:
        """Enter one level of parentheses or unary sign opened at ``pos``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)

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
        kind, text, pos = self.peek()
        if kind == "sym" and text in "+-":
            self.advance()
            self.nest(pos)
            inner = self.factor()
            self.depth -= 1
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
            return RatFunc.const(int_literal(text, pos))
        if kind == "name":
            if text == "i":
                return RatFunc.const(SQRT_M1)
            if text == "zeta8":
                return RatFunc.const(ZETA8)
            if text in VARIABLES:
                return RatFunc.var(text)
            raise ParseError(f"unknown variable {text!r}", pos)
        if kind == "sym" and text == "(":
            self.nest(pos)
            value = self.expr()
            self.expect(")")
            self.depth -= 1
            return value
        raise ParseError(
            f"expected a value, found {text or 'end of input'!r}", pos
        )


def parse_expression(text: str) -> RatFunc:
    """Parse ``text`` into a RatFunc in the engine's variables."""
    return _Parser(text).parse()
