"""Exact arithmetic in the cyclotomic field Q(zeta_8).

Elements are stored in the power basis {1, zeta, zeta^2, zeta^3} with rational
coordinates, where zeta is a primitive 8th root of unity with minimal
polynomial x^4 + 1.  The three square roots the engine needs all live here:

    zeta^2 = sqrt(-1),   zeta - zeta^3 = sqrt(2),   zeta = (1 + sqrt(-1)) / sqrt(2).

Rationals are stdlib ``fractions.Fraction`` (already gcd-reduced with positive
denominator, which is exactly the normal form the engine requires).  Inversion
uses the quadratic tower Q <= Q(i) <= Q(zeta_8): the automorphism
zeta -> -zeta fixes Q(i), so multiplying by the conjugate lands in Q(i), where
a Gaussian rational a + b*i is inverted by (a - b*i) / (a^2 + b^2).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Optional, Union

from .errors import ParseError

Coord = Union[int, Fraction]


def _frac(x: Coord) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Cyclo:
    """An element c0 + c1*zeta + c2*zeta^2 + c3*zeta^3 of Q(zeta_8)."""

    __slots__ = ("coords",)

    def __init__(self, c0: Coord = 0, c1: Coord = 0, c2: Coord = 0, c3: Coord = 0):
        object.__setattr__(
            self, "coords", (_frac(c0), _frac(c1), _frac(c2), _frac(c3))
        )

    def __setattr__(self, name, value):
        raise AttributeError("Cyclo instances are immutable")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_rational(q: Coord) -> "Cyclo":
        return Cyclo(_frac(q))

    @staticmethod
    def coerce(x: "Cyclo | Coord") -> "Cyclo":
        if isinstance(x, Cyclo):
            return x
        return Cyclo.from_rational(x)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return self.coords[1] == 0 and self.coords[2] == 0 and self.coords[3] == 0

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coords[0]

    def is_integer(self) -> bool:
        return self.is_rational() and self.coords[0].denominator == 1

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "Cyclo":
        other = Cyclo.coerce(other)
        a, b = self.coords, other.coords
        return Cyclo(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])

    __radd__ = __add__

    def __neg__(self) -> "Cyclo":
        a = self.coords
        return Cyclo(-a[0], -a[1], -a[2], -a[3])

    def __sub__(self, other) -> "Cyclo":
        return self + (-Cyclo.coerce(other))

    def __rsub__(self, other) -> "Cyclo":
        return Cyclo.coerce(other) + (-self)

    def __mul__(self, other) -> "Cyclo":
        other = Cyclo.coerce(other)
        a, b = self.coords, other.coords
        # Convolution folded by zeta^4 = -1: the degree-(k+4) part re-enters
        # with a sign flip.
        prod = [Fraction(0)] * 8
        for i in range(4):
            if a[i] == 0:
                continue
            for j in range(4):
                if b[j] == 0:
                    continue
                prod[i + j] += a[i] * b[j]
        return Cyclo(
            prod[0] - prod[4],
            prod[1] - prod[5],
            prod[2] - prod[6],
            prod[3] - prod[7],
        )

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        """Multiplicative inverse by conjugate and norm.

        With sigma: zeta -> -zeta, u = x * sigma(x) = a + b*i lies in Q(i), so
        x^-1 = sigma(x) * (a - b*i) / (a^2 + b^2).  Raises ZeroDivisionError
        on zero, the only element whose norm a^2 + b^2 vanishes.
        """
        c0, c1, c2, c3 = self.coords
        a = c0 * c0 - c2 * c2 + 2 * c1 * c3
        b = 2 * c0 * c2 - c1 * c1 + c3 * c3
        norm = a * a + b * b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(zeta_8)")
        return Cyclo(c0, -c1, c2, -c3) * Cyclo(a / norm, 0, -b / norm, 0)

    def __truediv__(self, other) -> "Cyclo":
        return self * Cyclo.coerce(other).inverse()

    def __rtruediv__(self, other) -> "Cyclo":
        return Cyclo.coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "Cyclo":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        base = self if n >= 0 else self.inverse()
        result = ONE
        for _ in range(abs(n)):
            result = result * base
        return result

    # -- comparison and hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclo.from_rational(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    # -- display -------------------------------------------------------------

    def __str__(self) -> str:
        names = ["", "zeta8", "i", "zeta8^3"]
        parts = []
        for c, name in zip(self.coords, names):
            if c == 0:
                continue
            if name == "":
                parts.append(str(c))
            elif c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"Cyclo({self})"

    def encode(self) -> str:
        """Canonical textual form: four comma-separated rationals."""
        return ",".join(str(c) for c in self.coords)


ZERO = Cyclo(0)
ONE = Cyclo(1)
ZETA8 = Cyclo(0, 1)
SQRT_M1 = Cyclo(0, 0, 1)
SQRT2 = Cyclo(0, 1, 0, -1)


def parse_cyclo(text: str) -> Cyclo:
    """Parse the ``"c0,c1,c2,c3"`` encoding; short forms pad with zeros.

    Each coordinate is an integer or p/q fraction.  Raises ParseError with the
    offending component's character offset on malformed input.
    """
    pieces = text.split(",")
    if len(pieces) > 4 or not text.strip():
        raise ParseError(f"expected at most 4 comma-separated rationals, got {text!r}", 0)
    coords = []
    offset = 0
    for piece in pieces:
        try:
            coords.append(Fraction(piece.strip()))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational {piece.strip()!r}", offset) from None
        offset += len(piece) + 1
    while len(coords) < 4:
        coords.append(Fraction(0))
    return Cyclo(*coords)


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


# -- square roots ------------------------------------------------------------
#
# Needed for Moebius fixed points.  The tower Q <= Q(i) <= Q(zeta_8) reduces a
# square root in the big field to rational perfect-square tests.  Each helper
# returns None when no root exists in its field, so callers can fall back to
# count-only answers.


def rational_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    nr, dr = isqrt(q.numerator), isqrt(q.denominator)
    if nr * nr == q.numerator and dr * dr == q.denominator:
        return Fraction(nr, dr)
    return None


def _gauss(re: Fraction, im: Fraction) -> Cyclo:
    return Cyclo(re, 0, im, 0)


def _gauss_sqrt(re: Fraction, im: Fraction) -> Optional[Cyclo]:
    """Square root of re + im*i inside Q(i), as a Cyclo, or None."""
    if im == 0:
        r = rational_sqrt(re)
        if r is not None:
            return _gauss(r, Fraction(0))
        r = rational_sqrt(-re)
        if r is not None:
            return _gauss(Fraction(0), r)
        return None
    norm = rational_sqrt(re * re + im * im)
    if norm is None:
        return None
    p2 = (re + norm) / 2
    p = rational_sqrt(p2)
    if p is None or p == 0:
        return None
    return _gauss(p, im / (2 * p))


def field_sqrt(delta: Cyclo) -> Optional[Cyclo]:
    """A square root of delta in Q(zeta_8), or None if none exists there.

    Writes delta = u + v*zeta with u, v in Q(i); then x = p + q*zeta squares to
    (p^2 + i q^2) + 2pq zeta, which reduces the problem to square roots in
    Q(i).  Completeness: p^2 solves a quadratic over Q(i), so if the needed
    Gaussian roots do not exist, no root exists in the field at all.
    """
    if delta.is_zero():
        return ZERO
    c0, c1, c2, c3 = delta.coords
    u_re, u_im = c0, c2
    v_re, v_im = c1, c3
    i = SQRT_M1
    u = _gauss(u_re, u_im)
    v = _gauss(v_re, v_im)
    if v.is_zero():
        root = _gauss_sqrt(u_re, u_im)
        if root is not None:
            return root
        # Try x = q * zeta, so q^2 = u / i = -i u.
        w = -i * u
        root = _gauss_sqrt(w.coords[0], w.coords[2])
        if root is not None:
            return root * ZETA8
        return None
    disc = u * u - i * v * v
    s = _gauss_sqrt(disc.coords[0], disc.coords[2])
    if s is None:
        return None
    for sign in (1, -1):
        t = (u + sign * s) * Fraction(1, 2)
        p = _gauss_sqrt(t.coords[0], t.coords[2])
        if p is None or p.is_zero():
            continue
        q = v / (2 * p)
        cand = p + q * ZETA8
        if cand * cand == delta:
            return cand
    return None
