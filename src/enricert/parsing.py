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

A resource cap is a parse error too.  A DegreeCapError or SizeCapError from
one of the parser's own +, -, *, / or ^ becomes a ParseError at that
operator, so the message, with its document location, names where the
expression went over.  A power is refused before it is computed when its
result could have a coefficient numerator or denominator of more than
MAX_DIGITS decimal digits: a constant has degree 0, so without this bound
each level of nested ^ could multiply a constant's size by 64.  The result
of a +, -, * or / is refused at its operator when it has such a
coefficient, so a chain of products of large constants stops growing at
that size instead of taking time quadratic in its length.

Every value is a RatFunc, and every operation is RatFunc arithmetic, except
that a run of polynomial summands is added in place in one poly.RunningSum,
with the terms and term order of the chain of RatFunc sums, so a sum takes
time linear in its number of terms.  A product, quotient or power of
constants, variables and their powers is one term over one term, which
RatFunc builds from the exponent keys alone.
"""

from __future__ import annotations

from math import lcm
from typing import List, Tuple

from .errors import DegreeCapError, ParseError, SizeCapError
from .field import SQRT_M1, ZETA8, int_literal
from .poly import DEGREE_CAP, RatFunc, RunningSum, VARIABLES

_SYMBOLS = set("+-*/^()")
# ASCII only: str.isdigit also holds for other digits, such as "²" or "٣"
_DIGITS = "0123456789"

#: Deepest nesting of parentheses and unary signs together.  Each level of
#: parentheses costs five frames of recursion (expr, term, factor, power,
#: atom), so this stays far below the default recursion limit of 1000.
MAX_NESTING = 100

#: Most decimal digits a power may give a coefficient's numerator or
#: denominator, a fixed work bound: the default int string-conversion limit.
#: Literals are bounded by int_literal, which follows the current limit.
MAX_DIGITS = 4300
_DIGIT_LIMIT = 10 ** MAX_DIGITS


def _too_long(base: RatFunc, m: int) -> bool:
    """Whether base^m or base^-m could have a coefficient numerator or
    denominator of more than MAX_DIGITS digits.  Over a common denominator
    L of the coefficients of base's numerator and denominator, the m-th
    power of either has denominator L^m and integer numerators of at most
    S^m, S the sum of the absolute values of their numerators over L."""
    coeffs = [*base.num.coefficients(), *base.den.coefficients()]
    den = lcm(*[c.den for c in coeffs])
    h = max(den, sum(sum(map(abs, c.numerators)) * (den // c.den) for c in coeffs))
    # h^m >= 2^(m * (bits - 1)); otherwise h^m is at most m bits longer
    # than the limit and cheap to compute exactly
    return m * (h.bit_length() - 1) >= _DIGIT_LIMIT.bit_length() or h ** m >= _DIGIT_LIMIT


_RESULT_NAMES = {"+": "sum", "-": "difference", "*": "product", "/": "quotient"}


def _check_digits(height: int, op: str, pos: int) -> None:
    """Refuse the result of the operator ``op`` at ``pos`` when ``height``,
    that of a coefficient numerator or denominator, has more than
    MAX_DIGITS digits."""
    if height >= _DIGIT_LIMIT:
        raise ParseError(
            f"{_RESULT_NAMES[op]} would have a coefficient of more than {MAX_DIGITS} digits", pos
        )


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
        # the position of the operator being applied, for a cap error
        self.at = 0

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
        try:
            value = self.expr()
        except (DegreeCapError, SizeCapError) as exc:
            raise ParseError(str(exc), self.at) from None
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {text!r}", pos)
        return value

    def expr(self) -> RatFunc:
        value = self.term()
        # the sum so far while its summands are polynomials, added in place
        run = None
        while True:
            kind, text, pos = self.peek()
            if kind != "sym" or text not in "+-":
                return value if run is None else RatFunc.from_poly(run.poly())
            self.advance()
            rhs = self.term()
            self.at = pos
            if rhs.is_polynomial() and (run is not None or value.is_polynomial()):
                if run is None:
                    run = RunningSum(value.num)
                # Only the coefficients at the terms of rhs change; the
                # others were checked already, so a long sum is neither
                # copied nor read in full per term.
                _check_digits(run.add(rhs.num, negate=text == "-"), text, pos)
                continue
            if run is not None:
                value, run = RatFunc.from_poly(run.poly()), None
            value = value + rhs if text == "+" else value - rhs
            _check_digits(value.height(), text, pos)

    def term(self) -> RatFunc:
        value = self.factor()
        while True:
            kind, text, pos = self.peek()
            if kind == "sym" and text in "*/":
                self.advance()
                rhs = self.factor()
                if text == "/" and rhs.is_zero():
                    raise ParseError("division by zero", pos)
                self.at = pos
                value = value / rhs if text == "/" else value * rhs
                _check_digits(value.height(), text, pos)
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
        kind, text, at = self.peek()
        if kind == "sym" and text == "^":
            self.advance()
            n = self.exponent()
            if n < 0 and base.is_zero():
                _, _, pos = self.peek()
                raise ParseError("zero raised to a negative power", pos)
            if _too_long(base, abs(n)):
                raise ParseError(
                    f"power would have a coefficient of more than {MAX_DIGITS} digits", at
                )
            self.at = at
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
