"""Exact arithmetic in the cyclotomic field Q(zeta_8).

Elements are stored in the power basis {1, zeta, zeta^2, zeta^3}, where zeta
is a primitive 8th root of unity with minimal polynomial x^4 + 1.  The square
roots in the families' formulas all live here:

    zeta^2 = sqrt(-1),   zeta - zeta^3 = sqrt(2),   zeta = (1 + sqrt(-1)) / sqrt(2).

An element is four integer numerators over one positive common denominator,
(n0 + n1*zeta + n2*zeta^2 + n3*zeta^3) / den, reduced so that
gcd(n0, n1, n2, n3, den) = 1.  Each value has exactly one such form, so
equality is a tuple compare, and a product costs sixteen integer products and
one gcd.  Inversion uses the quadratic tower Q <= Q(i) <= Q(zeta_8): the
automorphism zeta -> -zeta fixes Q(i), so multiplying by the conjugate lands
in Q(i), where a Gaussian integer a + b*i is inverted by (a - b*i) / (a^2 + b^2).

An int or a Fraction enters arithmetic only as the right operand, as in
x * 2 or x - 1; 2 * x, 1 + x, 2 - x and 1 / x raise TypeError.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Tuple, Union

from .errors import ParseError

Coord = Union[int, Fraction]


def _int_pair(x: Coord) -> Tuple[int, int]:
    """(numerator, denominator) of an int or Fraction coordinate."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _form(pairs) -> Tuple[int, int, int, int, int]:
    """The reduced form of four coordinates given as (numerator, denominator)."""
    den = lcm(*(d for _, d in pairs))
    nums = [n * (den // d) for n, d in pairs]
    g = gcd(*nums, den)
    return tuple(n // g for n in nums) + (den // g,)


def _int_text(n: int) -> str:
    """``str(n)``; past the interpreter's int string-conversion limit,
    ``<N-digit integer>`` with N exact, found without converting n."""
    try:
        return str(n)
    except ValueError:
        m = abs(n)
        digits = int((m.bit_length() - 1) * 0.30102999566398120) + 1
        # the float estimate may be one off; the loops make it exact
        while 10 ** digits <= m:
            digits += 1
        while 10 ** (digits - 1) > m:
            digits -= 1
        return f"{'-' if n < 0 else ''}<{digits}-digit integer>"


def int_digit_limit() -> int:
    """The interpreter's int string-conversion limit in digits; 0 when there
    is none, as on a Python without ``sys.get_int_max_str_digits``."""
    limit = getattr(sys, "get_int_max_str_digits", None)
    return limit() if limit else 0


def signed_sum(parts) -> str:
    """The term texts ``parts`` written as a sum: a part with a leading
    minus joins with " - ", any other with " + "; no parts give "0"."""
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _coord_text(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` without building the Fraction."""
    g = gcd(n, d)
    if g != d:
        return f"{_int_text(n // g)}/{_int_text(d // g)}"
    return _int_text(n // g)


class Cyclo:
    """An element (n0 + n1*zeta + n2*zeta^2 + n3*zeta^3) / den of Q(zeta_8).

    The constructor takes the four rational coordinates as ints or
    Fractions.  ``numerators`` and ``den`` give the reduced integer form.
    """

    # _q is the reduced form (n0, n1, n2, n3, den) with den > 0.
    __slots__ = ("_q",)

    def __init__(self, c0: Coord = 0, c1: Coord = 0, c2: Coord = 0, c3: Coord = 0):
        q = _form([_int_pair(c) for c in (c0, c1, c2, c3)])
        object.__setattr__(self, "_q", q)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclo instances are immutable")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_rational(q: Coord) -> "Cyclo":
        n, d = _int_pair(q)
        return _raw((n, 0, 0, 0, d))

    @staticmethod
    def coerce(x: "Cyclo | Coord") -> "Cyclo":
        if isinstance(x, Cyclo):
            return x
        return Cyclo.from_rational(x)

    # -- the integer form ----------------------------------------------------

    @property
    def numerators(self) -> Tuple[int, int, int, int]:
        return self._q[:4]

    @property
    def den(self) -> int:
        return self._q[4]

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self._q == _ZERO_Q

    def is_rational(self) -> bool:
        q = self._q
        return q[1] == 0 and q[2] == 0 and q[3] == 0

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self._q[0], self._q[4])

    def is_integer(self) -> bool:
        return self.is_rational() and self._q[4] == 1

    def height(self) -> int:
        """The largest absolute value of a numerator or the denominator."""
        return max(map(abs, self._q))

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "Cyclo":
        a0, a1, a2, a3, ad = self._q
        b0, b1, b2, b3, bd = (other if type(other) is Cyclo else Cyclo.coerce(other))._q
        if ad == bd:
            return _reduced(a0 + b0, a1 + b1, a2 + b2, a3 + b3, ad)
        return _reduced(
            a0 * bd + b0 * ad, a1 * bd + b1 * ad, a2 * bd + b2 * ad, a3 * bd + b3 * ad,
            ad * bd,
        )

    def __neg__(self) -> "Cyclo":
        n0, n1, n2, n3, d = self._q
        return _raw((-n0, -n1, -n2, -n3, d))

    def __sub__(self, other) -> "Cyclo":
        # self + (-other) in one step
        a0, a1, a2, a3, ad = self._q
        b0, b1, b2, b3, bd = (other if type(other) is Cyclo else Cyclo.coerce(other))._q
        if ad == bd:
            return _reduced(a0 - b0, a1 - b1, a2 - b2, a3 - b3, ad)
        return _reduced(
            a0 * bd - b0 * ad, a1 * bd - b1 * ad, a2 * bd - b2 * ad, a3 * bd - b3 * ad,
            ad * bd,
        )

    def __mul__(self, other) -> "Cyclo":
        a0, a1, a2, a3, ad = self._q
        b0, b1, b2, b3, bd = (other if type(other) is Cyclo else Cyclo.coerce(other))._q
        # Convolution folded by zeta^4 = -1: the degree-(k+4) part re-enters
        # with a sign flip.
        return _reduced(
            a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
            ad * bd,
        )

    def inverse(self) -> "Cyclo":
        """Multiplicative inverse by conjugate and norm.

        For x = n / den with integer numerators n and sigma: zeta -> -zeta,
        u = n * sigma(n) = a + b*i lies in Z[i], so
        x^-1 = den * sigma(n) * (a - b*i) / (a^2 + b^2).  Raises
        ZeroDivisionError on zero, the only element whose norm a^2 + b^2
        vanishes.
        """
        n0, n1, n2, n3, d = self._q
        a = n0 * n0 - n2 * n2 + 2 * n1 * n3
        b = 2 * n0 * n2 - n1 * n1 + n3 * n3
        norm = a * a + b * b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(zeta_8)")
        # sigma(n) = (n0, -n1, n2, -n3) times (a, 0, -b, 0), folded by zeta^4 = -1.
        return _reduced(
            d * (n0 * a + n2 * b),
            -d * (n1 * a + n3 * b),
            d * (n2 * a - n0 * b),
            d * (n1 * b - n3 * a),
            norm,
        )

    def __truediv__(self, other) -> "Cyclo":
        return self * Cyclo.coerce(other).inverse()

    def __pow__(self, n: int) -> "Cyclo":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = ONE
        # Square-and-multiply.
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- comparison and hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is Cyclo:
            return self._q == other._q
        if isinstance(other, (int, Fraction)):
            n, d = _int_pair(other)
            return self._q == (n, 0, 0, 0, d)
        return NotImplemented

    def __hash__(self):
        q = self._q
        if q[1] == 0 and q[2] == 0 and q[3] == 0:
            # Equal values hash equally: a rational hashes as its Fraction
            # (an integer as its int).
            return hash(q[0]) if q[4] == 1 else hash(Fraction(q[0], q[4]))
        return hash(q)

    # -- display -------------------------------------------------------------

    def _texts(self) -> Tuple[str, ...]:
        d = self._q[4]
        return tuple(_coord_text(n, d) for n in self._q[:4])

    def __str__(self) -> str:
        names = ["", "zeta8", "i", "zeta8^3"]
        parts = []
        for c, name in zip(self._texts(), names):
            if c == "0":
                continue
            if name == "":
                parts.append(c)
            elif c == "1":
                parts.append(name)
            elif c == "-1":
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        return signed_sum(parts)

    def __repr__(self) -> str:
        return f"Cyclo({self})"

    def encode(self) -> str:
        """Canonical textual form: four comma-separated rationals, which
        parse_cyclo reads back, except that an integer past the int
        string-conversion limit is written as its digit count."""
        return ",".join(self._texts())


_new_cyclo = object.__new__
_set_q = Cyclo._q.__set__
_ZERO_Q = (0, 0, 0, 0, 1)


def _raw(q: Tuple[int, int, int, int, int]) -> Cyclo:
    """A Cyclo from a form already reduced, with positive denominator."""
    x = _new_cyclo(Cyclo)
    _set_q(x, q)
    return x


def _reduced(n0: int, n1: int, n2: int, n3: int, d: int) -> Cyclo:
    """A Cyclo from numerators over a positive denominator, reduced by gcd."""
    if d != 1:
        g = gcd(n0, n1, n2, n3, d)
        if g != 1:
            return _raw((n0 // g, n1 // g, n2 // g, n3 // g, d // g))
    return _raw((n0, n1, n2, n3, d))


ZERO = Cyclo(0)
ONE = Cyclo(1)
ZETA8 = Cyclo(0, 1)
SQRT_M1 = Cyclo(0, 0, 1)


_RATIONAL = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")


def int_literal(digits: str, position: int) -> int:
    """The value of a decimal literal; ParseError at ``position`` if too long."""
    try:
        return int(digits)
    except ValueError:  # beyond the interpreter's digit limit
        raise ParseError(
            f"integer literal of {len(digits)} digits is too long", position
        ) from None


def parse_cyclo(text: str) -> Cyclo:
    """Parse the ``"c0,c1,c2,c3"`` encoding; short forms pad with zeros.

    Each coordinate is an integer ``n`` or a fraction ``n/d`` (optional sign,
    ASCII digits, surrounding spaces allowed).  Raises ParseError with the
    offending component's character offset on any other form, on a zero
    denominator and on a literal longer than the interpreter's int
    conversion limit.
    """
    pieces = text.split(",")
    if len(pieces) > 4 or not text.strip():
        raise ParseError(f"expected at most 4 comma-separated rationals, got {text!r}", 0)
    pairs = []
    offset = 0
    for piece in pieces:
        body = piece.strip()
        m = _RATIONAL.fullmatch(body)
        if m is None:
            raise ParseError(f"bad rational {body!r}", offset)
        start = offset + len(piece) - len(piece.lstrip())
        sign, num, den = m.groups()
        n = int_literal(num, start + m.start(2))
        d = 1 if den is None else int_literal(den, start + m.start(3))
        if d == 0:
            raise ParseError(f"bad rational {body!r}", offset)
        pairs.append((-n if sign == "-" else n, d))
        offset += len(piece) + 1
    while len(pairs) < 4:
        pairs.append((0, 1))
    return _raw(_form(pairs))


def root_of_unity_order(a: Cyclo) -> Optional[int]:
    """Smallest n in 1..8 with a^n = 1, or None.

    Every root of unity in Q(zeta_8) has order dividing 8, so the bounded
    search is complete.
    """
    power = ONE
    for n in range(1, 9):
        power = power * a
        if power == ONE:
            return n
    return None
