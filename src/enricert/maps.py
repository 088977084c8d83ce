"""Birational self-maps of the double covers and automorphisms of the quadric.

A BirMap stores one coordinate expression per ambient variable: the base
coordinates are functions of the base variables, and the cover coordinate is
a + b*w with a and b functions of the base variables (BirMap.cover_parts
splits it).  Every automorphism of a double plane w^2 = S has this shape, so
composition is plain substitution, which keeps it, and two maps are equal
when their coordinates agree: {1, w} is a basis of the surface's function
field over the base function field, so a + b*w = a' + b'*w holds on the
surface exactly when a = a' and b = b'.  The relation w^2 = S only enters
where the cover coordinate is squared, in check_equation_invariance.

Automorphisms of the quadric P1 x P1 that either preserve or exchange the two
rulings are represented exactly by a pair of 2x2 matrices over Q(zeta_8) plus
a shape flag ("direct" preserves the rulings, "swap" exchanges them).  Fixed
points come from the quadratic c x^2 + (d - a) x - b = 0 of each Moebius
factor; coordinates are reported when the roots lie in Q(zeta_8), and only
counted otherwise.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InvariantError, PreconditionError
from .field import Cyclo, ONE, ZERO, ZETA8, field_sqrt
from .parsing import parse_expression
from .poly import MPoly, RatFunc, as_ratfunc
from .cover import SurfaceFamily

ENRIQUES_VARS = ("w", "y", "z")
K3_VARS = ("W", "Y", "Z")


class BirMap:
    """A birational self-map given by one coordinate expression per variable.

    ``variables`` lists the ambient coordinates, cover variable first.  Maps
    with an untouched cover coordinate double as self-maps of the base.
    """

    def __init__(
        self,
        variables: Sequence[str],
        coords: Dict[str, RatFunc],
        label: str = "",
    ):
        self.variables = tuple(variables)
        if len(self.variables) != 3:
            raise InvariantError("expected exactly three ambient variables")
        self.coords = {v: as_ratfunc(coords[v]) for v in self.variables}
        self.label = label or "map"
        self._validate()

    @property
    def cover_var(self) -> str:
        return self.variables[0]

    @property
    def base_vars(self) -> Tuple[str, str]:
        return self.variables[1:]

    def _validate(self) -> None:
        cv = self.cover_var
        for v in self.base_vars:
            r = self.coords[v]
            if r.is_zero():
                raise InvariantError(f"{self.label}: base coordinate {v} is zero")
            if r.num.degree_in(cv) or r.den.degree_in(cv):
                raise InvariantError(
                    f"{self.label}: base coordinate {v} involves {cv}"
                )
        r = self.coords[cv]
        if r.is_zero():
            raise InvariantError(f"{self.label}: cover coordinate is zero")
        if r.den.degree_in(cv):
            raise InvariantError(
                f"{self.label}: cover coordinate has {cv} in its denominator"
            )
        if r.num.degree_in(cv) > 1:
            raise InvariantError(
                f"{self.label}: cover coordinate has degree > 1 in {cv}"
            )

    def cover_parts(self) -> Tuple[RatFunc, RatFunc]:
        """(a, b) with cover coordinate a + b*w, both free of w."""
        r = self.coords[self.cover_var]
        a, b = (r.num.coefficient({self.cover_var: k}) for k in (0, 1))
        return RatFunc(a, r.den), RatFunc(b, r.den)

    @staticmethod
    def identity(variables: Sequence[str] = ENRIQUES_VARS) -> "BirMap":
        return BirMap(
            variables,
            {v: RatFunc.var(v) for v in variables},
            label="id",
        )

    @staticmethod
    def from_strings(
        variables: Sequence[str], label: str = "", **exprs: str
    ) -> "BirMap":
        coords = {v: parse_expression(exprs[v]) for v in variables}
        return BirMap(variables, coords, label=label)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v} -> {self.coords[v]}" for v in self.variables)
        return f"BirMap[{self.label}]({inner})"


def compose(outer: BirMap, inner: BirMap) -> BirMap:
    """The map sending P to outer(inner(P)).

    Coordinates of the result are outer's expressions with inner's
    coordinates substituted in; the result is again of the shape a + b*w.
    """
    if outer.variables != inner.variables:
        raise PreconditionError("composing maps over different coordinate triples")
    substitution = {v: inner.coords[v] for v in inner.variables}
    coords = {
        v: outer.coords[v].substitute(substitution) for v in outer.variables
    }
    return BirMap(
        outer.variables, coords, label=f"{outer.label}.{inner.label}"
    )


def is_identity(phi: BirMap) -> bool:
    return maps_equal(phi, BirMap.identity(phi.variables))


def maps_equal(phi: BirMap, psi: BirMap) -> bool:
    """Coordinatewise equality, which is equality on the surface."""
    if phi.variables != psi.variables:
        return False
    return all(phi.coords[v] == psi.coords[v] for v in phi.variables)


def map_order(phi: BirMap, max_n: int = 16) -> Optional[int]:
    """Smallest n <= max_n with phi^n the identity, or None.

    Powers are compared with the identity coordinate by coordinate, with no
    reduction modulo w^2 = S.  That is exact on the surface: each power sends
    w to a + b*w, and {1, w} is a basis over the base function field.  So the
    deck transformation (w -> -w over the identity on the base) counts as a
    nontrivial map.
    """
    current = phi
    for n in range(1, max_n + 1):
        if is_identity(current):
            return n
        if n < max_n:
            current = compose(phi, current)
    return None


class InvarianceResult:
    """Verdict of an equation-invariance check, with a remainder witness and
    the pulled-back relation S(phi*y, phi*z)."""

    def __init__(self, holds: bool, witness_even: MPoly, witness_odd: MPoly,
                 pulled: RatFunc):
        self.holds = holds
        self.witness_even = witness_even
        self.witness_odd = witness_odd
        self.pulled = pulled

    def __bool__(self) -> bool:
        return self.holds

    def __repr__(self) -> str:
        if self.holds:
            return "InvarianceResult(holds)"
        return (
            f"InvarianceResult(fails, even={self.witness_even}, "
            f"odd={self.witness_odd})"
        )


def check_equation_invariance(fam: SurfaceFamily, phi: BirMap) -> InvarianceResult:
    """Certify (phi*w)^2 - S(phi*y, phi*z) = 0 modulo w^2 = S.

    With phi*w = a + b*w the left side is (a^2 + b^2*S - S(phi*y, phi*z))
    + 2ab*w, so both parts must vanish.  For the double-plane model S = z*f
    this is the pullback of the defining equation; after clearing
    denominators it amounts to the antisymmetry identity of the branch
    polynomial.  On failure the numerators of the even and odd parts are the
    witness.
    """
    expected = (fam.cover_var,) + fam.base_vars
    if phi.variables != expected:
        raise PreconditionError(
            f"map over {phi.variables} cannot act on a family over {expected}"
        )
    b1, b2 = fam.base_vars
    relation = fam.relation()
    pulled = relation.substitute({b1: phi.coords[b1], b2: phi.coords[b2]})
    a, b = phi.cover_parts()
    even = a * a + b * b * RatFunc.from_poly(relation) - pulled
    odd = 2 * a * b
    return InvarianceResult(
        even.is_zero() and odd.is_zero(), even.num, odd.num, pulled
    )


# -- built-in automorphisms ---------------------------------------------------


def family_automorphism(k: int) -> BirMap:
    """The distinguished automorphism preserved by the k-th built-in family.

    k=1: order 4, negates the bi-2-form (index 2).
    k=2: order 8, multiplies the bi-2-form by -sqrt(-1) (index 4); its square
         is the k=1 map.
    k=3: order 8, negates the bi-2-form (index 2).
    """
    if k == 1:
        return BirMap.from_strings(
            ENRIQUES_VARS, label="aut_4_2",
            w="i*w/(y^2*z^3)", y="1/y", z="1/z",
        )
    if k == 2:
        return BirMap.from_strings(
            ENRIQUES_VARS, label="aut_8_4",
            w="zeta8*y^3*w/z^4", y="y/z", z="y^2/z",
        )
    if k == 3:
        return BirMap.from_strings(
            ENRIQUES_VARS, label="aut_8_2",
            w="w*y^3/z^3", y="i*y", z="y^2/z",
        )
    raise ValueError(f"no built-in automorphism {k}; choose 1, 2 or 3")


def k3_lift(k: int) -> BirMap:
    """A lift of the k-th automorphism (k in {1, 2}) to the K3 cover.

    The other lift is the composition with the deck flip; both are evaluated
    when two-form ratios are certified.
    """
    if k == 1:
        return BirMap.from_strings(
            K3_VARS, label="lift_4_2",
            W="i*W/(Y^2*Z^2)", Y="1/Y", Z="1/Z",
        )
    if k == 2:
        return BirMap.from_strings(
            K3_VARS, label="lift_8_4",
            W="zeta8*W/Z^2", Y="1/Z", Z="Y",
        )
    raise ValueError(f"no built-in lift {k}; choose 1 or 2")


def deck_flip() -> BirMap:
    """The involution (W, Y, Z) -> (-W, -Y, -Z) over the deck map of the base."""
    return BirMap.from_strings(K3_VARS, label="deck_flip", W="-W", Y="-Y", Z="-Z")


# -- automorphisms of the quadric P1 x P1 -------------------------------------


class _Infinity:
    """The point at infinity of P1; a singleton."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "oo"


INF = _Infinity()


class Mobius:
    """A 2x2 invertible matrix over Q(zeta_8), normalized up to scalar."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        a, b, c, d = (Cyclo.coerce(x) for x in (a, b, c, d))
        if (a * d - b * c).is_zero():
            raise InvariantError("Moebius matrix is singular")
        lead = next(x for x in (a, b, c, d) if not x.is_zero())
        if lead != ONE:
            scale = lead.inverse()
            a, b, c, d = (x * scale for x in (a, b, c, d))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("Mobius instances are immutable")

    def __reduce__(self):
        return Mobius, (self.a, self.b, self.c, self.d)

    @staticmethod
    def identity() -> "Mobius":
        return Mobius(ONE, ZERO, ZERO, ONE)

    def is_identity(self) -> bool:
        return self.b.is_zero() and self.c.is_zero() and self.a == self.d

    def __matmul__(self, other: "Mobius") -> "Mobius":
        return Mobius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mobius):
            return NotImplemented
        return (
            self.a == other.a and self.b == other.b
            and self.c == other.c and self.d == other.d
        )

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def apply(self, point):
        """Evaluate the fractional-linear action at a point of P1."""
        if point is INF:
            if self.c.is_zero():
                return INF
            return self.a / self.c
        x = Cyclo.coerce(point)
        den = self.c * x + self.d
        if den.is_zero():
            return INF
        return (self.a * x + self.b) / den

    def apply_ratfunc(self, x: RatFunc) -> RatFunc:
        num = RatFunc.const(self.a) * x + RatFunc.const(self.b)
        den = RatFunc.const(self.c) * x + RatFunc.const(self.d)
        return num / den

    def fixed_points(self) -> Tuple[int, Optional[List[object]], bool]:
        """(count, points or None, parabolic flag) for the action on P1.

        Fixed points solve c x^2 + (d - a) x - b = 0, with infinity fixed
        exactly when c = 0.  Coordinates are listed when they lie in
        Q(zeta_8); a repeated root (parabolic map) is flagged.
        """
        if self.is_identity():
            raise ValueError("the identity fixes everything")
        a, b, c, d = self.a, self.b, self.c, self.d
        if c.is_zero():
            if a == d:
                return 1, [INF], True
            return 2, [INF, b / (d - a)], False
        disc = (d - a) * (d - a) + 4 * b * c
        if disc.is_zero():
            return 1, [(a - d) / (2 * c)], True
        root = field_sqrt(disc)
        if root is None:
            return 2, None, False
        half = (2 * c).inverse()
        return 2, [((a - d) + root) * half, ((a - d) - root) * half], False

    def __repr__(self) -> str:
        return f"Mobius(({self.a}, {self.b}), ({self.c}, {self.d}))"


DIRECT = "direct"
SWAP = "swap"


class QAut:
    """An automorphism of P1 x P1 respecting the two rulings.

    direct shape: (Y, Z) -> (m1 . Y, m2 . Z)
    swap shape:   (Y, Z) -> (m1 . Z, m2 . Y)
    """

    __slots__ = ("shape", "m1", "m2")

    def __init__(self, shape: str, m1: Mobius, m2: Mobius):
        if shape not in (DIRECT, SWAP):
            raise InvariantError(f"unknown shape {shape!r}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "m1", m1)
        object.__setattr__(self, "m2", m2)

    def __setattr__(self, name, value):
        raise AttributeError("QAut instances are immutable")

    def __reduce__(self):
        return QAut, (self.shape, self.m1, self.m2)

    @staticmethod
    def identity() -> "QAut":
        return QAut(DIRECT, Mobius.identity(), Mobius.identity())

    def is_identity(self) -> bool:
        return (
            self.shape == DIRECT
            and self.m1.is_identity()
            and self.m2.is_identity()
        )

    def compose(self, other: "QAut") -> "QAut":
        """self after other."""
        shape = DIRECT if self.shape == other.shape else SWAP
        if self.shape == DIRECT:
            return QAut(shape, self.m1 @ other.m1, self.m2 @ other.m2)
        return QAut(shape, self.m1 @ other.m2, self.m2 @ other.m1)

    def inverse(self) -> "QAut":
        if self.shape == DIRECT:
            return QAut(DIRECT, self.m1.inverse(), self.m2.inverse())
        return QAut(SWAP, self.m2.inverse(), self.m1.inverse())

    def __eq__(self, other) -> bool:
        if not isinstance(other, QAut):
            return NotImplemented
        return self.shape == other.shape and self.m1 == other.m1 and self.m2 == other.m2

    def __hash__(self):
        return hash((self.shape, self.m1, self.m2))

    def order(self, max_n: int = 16) -> Optional[int]:
        current = self
        for n in range(1, max_n + 1):
            if current.is_identity():
                return n
            if n < max_n:
                current = self.compose(current)
        return None

    def ns_trace(self) -> int:
        """Trace on the rank-2 lattice spanned by the two ruling classes."""
        return 2 if self.shape == DIRECT else 0

    def coord_funcs(self) -> Tuple[RatFunc, RatFunc]:
        yv, zv = RatFunc.var("Y"), RatFunc.var("Z")
        if self.shape == DIRECT:
            return self.m1.apply_ratfunc(yv), self.m2.apply_ratfunc(zv)
        return self.m1.apply_ratfunc(zv), self.m2.apply_ratfunc(yv)

    def __repr__(self) -> str:
        return f"QAut({self.shape}, {self.m1}, {self.m2})"


class FixedPointData:
    """Fixed-point count of a QAut, with coordinates when available."""

    def __init__(self, count: int, points: Optional[List[Tuple[object, object]]],
                 parabolic: bool):
        self.count = count
        self.points = points
        self.parabolic = parabolic

    def __repr__(self) -> str:
        return f"FixedPointData(count={self.count}, points={self.points})"


def qaut_fixed_points(g: QAut) -> FixedPointData:
    """Fixed points of a non-identity QAut on the quadric.

    direct shape: the product of the two factors' fixed sets; a factor equal
    to the identity would fix a curve, which is rejected.  swap shape: fixed
    points biject with fixed points of m1 . m2 on the first ruling via
    (Y0, m2 . Y0); m1 . m2 = identity (fixing the graph curve) is rejected.
    """
    if g.is_identity():
        raise ValueError("the identity automorphism fixes everything")
    if g.shape == DIRECT:
        if g.m1.is_identity() or g.m2.is_identity():
            raise ValueError("a direct map with an identity factor fixes a curve")
        c1, pts1, par1 = g.m1.fixed_points()
        c2, pts2, par2 = g.m2.fixed_points()
        points = None
        if pts1 is not None and pts2 is not None:
            points = [(p, q) for p in pts1 for q in pts2]
        return FixedPointData(c1 * c2, points, par1 or par2)
    h = g.m1 @ g.m2
    if h.is_identity():
        raise ValueError("this ruling swap fixes a curve, not isolated points")
    count, pts, par = h.fixed_points()
    points = None
    if pts is not None:
        points = [(p, g.m2.apply(p)) for p in pts]
    return FixedPointData(count, points, par)


# -- the Klein-four normal form and square roots of the double inversion ------


def neg_both() -> QAut:
    """(Y, Z) -> (-Y, -Z), the residual deck map on the quadric."""
    m = Mobius(-ONE, ZERO, ZERO, ONE)
    return QAut(DIRECT, m, m)


def inv_both() -> QAut:
    """(Y, Z) -> (1/Y, 1/Z), the base of the order-4 automorphism's lift."""
    m = Mobius(ZERO, ONE, ONE, ZERO)
    return QAut(DIRECT, m, m)


def swap_root(sign: int) -> QAut:
    """(Y, Z) -> (sign/Z, sign*Y): the ruling-swapping square roots of
    the double inversion (sign in {1, -1})."""
    if sign not in (1, -1):
        raise ValueError("sign must be 1 or -1")
    s = ONE if sign == 1 else -ONE
    return QAut(SWAP, Mobius(ZERO, s, ONE, ZERO), Mobius(s, ZERO, ZERO, ONE))


def _unit_matrix(unit: Cyclo, inverted: bool) -> Mobius:
    if inverted:
        return Mobius(ZERO, unit, ONE, ZERO)
    return Mobius(unit, ZERO, ZERO, ONE)


def monomial_square_roots(target: QAut) -> List[QAut]:
    """All monomial-type QAuts g with g . g = target.

    The candidate set is every map whose coordinates are u * V or u / V with
    u an 8th root of unity and V one of the two coordinates (degenerate
    combinations using the same coordinate twice are skipped): at most
    8 * 8 * 16 candidates, searched exhaustively.
    """
    units = [ZETA8 ** k for k in range(8)]
    roots = []
    seen = set()
    for var1, var2 in itertools.product(("Y", "Z"), repeat=2):
        if var1 == var2:
            continue
        shape = DIRECT if var1 == "Y" else SWAP
        for inv1, inv2 in itertools.product((False, True), repeat=2):
            for u1, u2 in itertools.product(units, repeat=2):
                g = QAut(shape, _unit_matrix(u1, inv1), _unit_matrix(u2, inv2))
                if g in seen:
                    continue
                seen.add(g)
                if g.compose(g) == target:
                    roots.append(g)
    return roots


class K4CheckResult:
    """Outcome of the Klein-four normal form verification."""

    def __init__(
        self,
        ok: bool,
        klein_ok: bool,
        candidates_ok: bool,
        roots: List[QAut],
        direct_roots: List[QAut],
        up_to_inverse_ok: bool,
    ):
        self.ok = ok
        self.klein_ok = klein_ok
        self.candidates_ok = candidates_ok
        self.roots = roots
        self.direct_roots = direct_roots
        self.up_to_inverse_ok = up_to_inverse_ok

    def __bool__(self) -> bool:
        return self.ok


def k4_normal_form_check() -> K4CheckResult:
    """Verify the Klein-four normal form on the quadric and classify the
    monomial square roots of the double inversion.

    Checks: (a) the double negation and the double inversion generate a
    Klein four-group; (b) both ruling-swapping candidates square to the
    double inversion and have order 4; (c) the exhaustive monomial search
    finds no ruling-preserving square root (a rank-2 cyclic times order-2
    subgroup cannot act through one ruling factor), and every root it finds
    is one of the two swap candidates or an inverse of one.
    """
    iota = neg_both()
    phi1 = inv_both()
    prod = iota.compose(phi1)
    klein_ok = (
        iota.order() == 2
        and phi1.order() == 2
        and iota != phi1
        and prod == phi1.compose(iota)
        and prod.order() == 2
    )
    plus, minus = swap_root(1), swap_root(-1)
    candidates_ok = (
        plus.compose(plus) == phi1
        and minus.compose(minus) == phi1
        and plus.order() == 4
        and minus.order() == 4
    )
    roots = monomial_square_roots(phi1)
    direct_roots = [g for g in roots if g.shape == DIRECT]
    expected = {plus, minus, plus.inverse(), minus.inverse()}
    up_to_inverse_ok = set(roots) == expected and all(
        g in (plus, minus) or g.inverse() in (plus, minus) for g in roots
    )
    ok = klein_ok and candidates_ok and not direct_roots and up_to_inverse_ok
    return K4CheckResult(
        ok, klein_ok, candidates_ok, roots, direct_roots, up_to_inverse_ok
    )
