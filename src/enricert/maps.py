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

map_order works in exponent form wherever it can.  A monomial map sends
each of its variables x_v to c_v * x^(M_v), a nonzero scalar times a Laurent
monomial in the map's own three variables (for the cover coordinate
c * y^i * z^j * w).  So it is a pair (c, M) of a scalar vector and an
integer matrix, an element of (Q(zeta_8)^*)^3 x| GL3(Z) as a toric
morphism, where composition is (c, M) . (d, N) = (c * d^M, M N) with
(d^M)_v = prod_u d_u^(M_vu), and the identity is ((1, 1, 1), 1).  Powers
are taken there, with no RatFunc, compose or BirMap per power.  Maps with
no exponent form are composed, one compose and is_identity per power.
compose, too, composes the forms of two monomial maps and builds the result
from its form, with no substitution.  BirMap.exponent_form computes a map's
form once, or BirMap.from_form seeds it; the form ratios in the forms
module read it too.

Automorphisms of the quadric P1 x P1 that either preserve or exchange the two
rulings are represented exactly by a pair of 2x2 matrices over Q(zeta_8) plus
a shape flag ("direct" preserves the rulings, "swap" exchanges them).  Fixed
points are counted, not solved for: the quadratic c x^2 + (d - a) x - b = 0
of each Moebius factor has one root or two, as its discriminant decides.
The Klein-four normal form check and the search for monomial square roots
run in exponent form, on integer matrices and exponents of zeta_8, not on
these matrices; a QAut is built only for a root found.

The built-in automorphisms and K3 lifts are tables of labels and exponent
forms keyed by family tag, each row under a comment with its text in the
paper's notation, and the deck flip is one such form; BirMap.from_form
builds them, so a built-in run parses no text.  cover.builtin_entry refuses
an unknown tag.
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DegreeCapError, InvariantError, PreconditionError
from .field import Cyclo, ONE, SQRT_M1, ZERO, ZETA8
from .parsing import parse_expression
from .poly import DEGREE_CAP, MPoly, RatFunc, as_ratfunc, laurent_difference, slot
from .cover import ENRIQUES_VARS, K3_VARS, SurfaceFamily, builtin_entry

#: The largest order map_order looks for.
MAX_ORDER = 16


def same_triple(a, b) -> bool:
    """Whether a and b, maps or families, have the same coordinate triple."""
    return a.variables == b.variables


class BirMap:
    """A birational self-map given by one coordinate expression per variable.

    ``variables`` lists the ambient coordinates, cover variable first.  Maps
    with an untouched cover coordinate double as self-maps of the base.
    """

    def __init__(
        self,
        variables: Sequence[str],
        coords: Dict[str, RatFunc],
        label: str,
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
                raise InvariantError(f"base coordinate {v} is zero")
            if r.num.degree_in(cv) or r.den.degree_in(cv):
                raise InvariantError(f"base coordinate {v} involves {cv}")
        r = self.coords[cv]
        if r.is_zero():
            raise InvariantError("cover coordinate is zero")
        if r.den.degree_in(cv):
            raise InvariantError(f"cover coordinate has {cv} in its denominator")
        if r.num.degree_in(cv) > 1:
            raise InvariantError(f"cover coordinate has degree > 1 in {cv}")

    def cover_parts(self) -> Tuple[RatFunc, RatFunc]:
        """(a, b) with cover coordinate a + b*w, both free of w."""
        r = self.coords[self.cover_var]
        a, b = (r.num.coefficient({self.cover_var: k}) for k in (0, 1))
        return RatFunc(a, r.den), RatFunc(b, r.den)

    @functools.cached_property
    def exponent_form(self):
        """The map as (c, M), the pairs (c_v, M_v) of x_v -> c_v * x^(M_v)
        in the order of its variables, or None when it is not monomial; see
        the module docstring.  Computed once per map."""
        return _exponent_form(self)

    @staticmethod
    def from_form(variables: Sequence[str], form, label: str) -> "BirMap":
        """The monomial map with exponent form ``form``, which it keeps as
        its exponent_form; each coordinate is built from the keys."""
        phi = BirMap(
            variables,
            {
                v: RatFunc.monomial(dict(zip(variables, row)), c)
                for v, (c, row) in zip(variables, form)
            },
            label=label,
        )
        # seeds the cached_property
        phi.__dict__["exponent_form"] = form
        return phi

    @staticmethod
    def from_strings(variables: Sequence[str], label: str, **exprs: str) -> "BirMap":
        coords = {v: parse_expression(exprs[v]) for v in variables}
        return BirMap(variables, coords, label=label)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v} -> {self.coords[v]}" for v in self.variables)
        return f"BirMap[{self.label}]({inner})"


def compose(outer: BirMap, inner: BirMap) -> BirMap:
    """The map sending P to outer(inner(P)).

    Two monomial maps are composed in exponent form (see the module
    docstring) and the result is built from the composed form; like
    map_order, this answers where substituting would pass DEGREE_CAP
    before cancelling under it.  Otherwise, and when the composed form has
    a coordinate over DEGREE_CAP, inner's coordinates are substituted into
    outer's, which keeps the shape a + b*w and raises the cap error.
    """
    if not same_triple(outer, inner):
        raise PreconditionError("composing maps over different coordinate triples")
    label = f"{outer.label}.{inner.label}"
    f, g = outer.exponent_form, inner.exponent_form
    if f is not None and g is not None:
        form = _compose_forms(f, g)
        if _degree(form) <= DEGREE_CAP:
            return BirMap.from_form(outer.variables, form, label)
    return _compose_by_substitution(outer, inner, label)


def _compose_by_substitution(outer: BirMap, inner: BirMap, label: str) -> BirMap:
    """compose by substituting inner's coordinates into outer's."""
    substitution = {v: inner.coords[v] for v in inner.variables}
    coords = {
        v: outer.coords[v].substitute(substitution) for v in outer.variables
    }
    return BirMap(outer.variables, coords, label=label)


def is_identity(phi: BirMap) -> bool:
    return all(phi.coords[v] == RatFunc.var(v) for v in phi.variables)


def maps_equal(phi: BirMap, psi: BirMap) -> bool:
    """Coordinatewise equality, which is equality on the surface."""
    return same_triple(phi, psi) and all(
        phi.coords[v] == psi.coords[v] for v in phi.variables
    )


def map_order(phi: BirMap) -> Optional[int]:
    """Smallest n <= MAX_ORDER with phi^n the identity, or None.

    Powers are compared with the identity coordinate by coordinate, with no
    reduction modulo w^2 = S.  That is exact on the surface: each power sends
    w to a + b*w, and {1, w} is a basis over the base function field.  So the
    deck transformation (w -> -w over the identity on the base) counts as a
    nontrivial map.

    A monomial phi is powered in exponent form (see the module docstring);
    a power is the identity when every c_v is 1 and every row M_v is the
    unit vector of v.  A power that could not be stored as a map, with a
    coordinate whose numerator or denominator is over DEGREE_CAP, raises
    DegreeCapError.  That bounds the exponents, and so the work, of every
    step.  A phi with no exponent form is composed with its powers instead.
    """
    power = form = phi.exponent_form
    if form is None:
        return _order_by_composition(phi)
    for n in range(1, MAX_ORDER + 1):
        if all(c == ONE and row == unit for (c, row), unit in zip(power, _UNIT_ROWS)):
            return n
        if n < MAX_ORDER:
            power = _compose_forms(form, power)
            degree = _degree(power)
            if degree > DEGREE_CAP:
                raise DegreeCapError(
                    f"power {n + 1} of {phi.label}: coordinate of total "
                    f"degree {degree} exceeds cap {DEGREE_CAP}"
                )
    return None


def _order_by_composition(phi: BirMap) -> Optional[int]:
    """map_order by composing the maps: one compose and is_identity per power."""
    current = phi
    for n in range(1, MAX_ORDER + 1):
        if is_identity(current):
            return n
        if n < MAX_ORDER:
            current = compose(phi, current)
    return None


# The exponent form of a monomial map x_v -> c_v * x^(M_v) is the tuple of
# pairs (c_v, M_v), in the order of the map's variables.
_UNIT_ROWS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _degree(form) -> int:
    """The largest degree of a numerator or a denominator of form's
    coordinates: x^row has degrees (size + total) / 2 and (size - total) / 2,
    with total and size the sums of row and of its absolute values."""
    return max((sum(map(abs, row)) + abs(sum(row))) // 2 for _, row in form)


def _exponent_form(phi: BirMap):
    """phi in exponent form, or None when some coordinate is not a single
    term over a single term in phi's own variables."""
    slots = [slot(v) for v in phi.variables]
    form = []
    for v in phi.variables:
        r = phi.coords[v]
        num, den = r.num.term_items(), r.den.term_items()
        if len(num) != 1 or len(den) != 1:
            return None
        # den is monic (RatFunc._simplify); exponents are nonnegative, so
        # equal sums leave no other variable
        (a, c), (b, _) = num[0], den[0]
        own = sum(a[s] + b[s] for s in slots)
        if own != sum(a) + sum(b):
            return None
        form.append((c, tuple(a[s] - b[s] for s in slots)))
    return tuple(form)


def _row_times(vector, rows) -> Tuple[int, int, int]:
    """The row vector ``vector`` times the 3x3 matrix whose rows are ``rows``."""
    (k0, k1, k2), (r0, r1, r2) = vector, rows
    return (
        k0 * r0[0] + k1 * r1[0] + k2 * r2[0],
        k0 * r0[1] + k1 * r1[1] + k2 * r2[1],
        k0 * r0[2] + k1 * r1[2] + k2 * r2[2],
    )


def _compose_forms(outer, inner):
    """outer after inner in exponent form: (c * d^M, M N)."""
    rows = [row for _, row in inner]
    out = []
    for c, row in outer:
        for (d, _), k in zip(inner, row):
            if k and d != ONE:
                c = c * d ** k
        out.append((c, _row_times(row, rows)))
    return tuple(out)


class InvarianceResult(NamedTuple):
    """Remainder witness of an equation-invariance check; it holds when the
    even and odd parts are both zero."""

    witness_even: MPoly
    witness_odd: MPoly

    @property
    def holds(self) -> bool:
        return self.witness_even.is_zero() and self.witness_odd.is_zero()

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

    A single-term cover coordinate is c * x^m * w or c * x^m, so one of a
    and b is zero, and with it the odd part.  The even part is then
    t * S - S(phi*y, phi*z) with t = b^2, or t = a^2 with 1 in place of S,
    and poly.laurent_difference sums it in one pass when the pulled-back
    relation has a monomial denominator, as for monomial maps, and no key
    of the sum is over DEGREE_CAP.  Every other map takes the RatFunc
    arithmetic, _invariance_by_ratfuncs, which may raise near the caps where
    the sum answers, and otherwise returns the same witness.
    """
    relation, pulled, a, b = pullback = _pullback(fam, phi)
    if a.is_zero() or b.is_zero():
        # a^2 or b^2 as the general body forms it, cap error included
        t, p = (b * b, relation) if a.is_zero() else (a * a, _ONE)
        even = laurent_difference(t, p, pulled)
        if even is not None:
            return InvarianceResult(even, MPoly.zero())
    return _invariance_by_ratfuncs(*pullback)


_ONE = MPoly.const(1)


def require_acts_on(fam: SurfaceFamily, phi: BirMap) -> None:
    """Raise PreconditionError unless phi is a map over fam's variables."""
    if not same_triple(phi, fam):
        raise PreconditionError(
            f"map over {phi.variables} cannot act on a family over {fam.variables}"
        )


def _pullback(fam: SurfaceFamily, phi: BirMap):
    """(S, S(phi*y, phi*z), a, b) for phi*w = a + b*w."""
    require_acts_on(fam, phi)
    b1, b2 = fam.base_vars
    relation = fam.relation()
    pulled = relation.substitute({b1: phi.coords[b1], b2: phi.coords[b2]})
    a, b = phi.cover_parts()
    return relation, pulled, a, b


def _invariance_by_ratfuncs(relation, pulled, a, b) -> InvarianceResult:
    """check_equation_invariance in RatFunc arithmetic, for any map."""
    even = a * a + b * b * RatFunc.from_poly(relation) - pulled
    odd = a * 2 * b
    return InvarianceResult(even.num, odd.num)


# -- built-in automorphisms ---------------------------------------------------
#
# Each built-in map by tag: its label and its exponent form, the pairs
# (c_v, M_v) of x_v -> c_v * x^(M_v) over (w, y, z) or (W, Y, Z); the
# comment above each row is its text in the paper's notation.

_AUTOMORPHISMS = {
    # w -> i*w/(y^2*z^3), y -> 1/y, z -> 1/z
    1: ("aut_4_2", ((SQRT_M1, (1, -2, -3)), (ONE, (0, -1, 0)), (ONE, (0, 0, -1)))),
    # w -> zeta8*y^3*w/z^4, y -> y/z, z -> y^2/z
    2: ("aut_8_4", ((ZETA8, (1, 3, -4)), (ONE, (0, 1, -1)), (ONE, (0, 2, -1)))),
    # w -> w*y^3/z^3, y -> i*y, z -> y^2/z
    3: ("aut_8_2", ((ONE, (1, 3, -3)), (SQRT_M1, (0, 1, 0)), (ONE, (0, 2, -1)))),
}
_LIFTS = {
    # W -> i*W/(Y^2*Z^2), Y -> 1/Y, Z -> 1/Z
    1: ("lift_4_2", ((SQRT_M1, (1, -2, -2)), (ONE, (0, -1, 0)), (ONE, (0, 0, -1)))),
    # W -> zeta8*W/Z^2, Y -> 1/Z, Z -> Y
    2: ("lift_8_4", ((ZETA8, (1, 0, -2)), (ONE, (0, 0, -1)), (ONE, (0, 1, 0)))),
}
# W -> -W, Y -> -Y, Z -> -Z
_DECK_FLIP = ((-ONE, (1, 0, 0)), (-ONE, (0, 1, 0)), (-ONE, (0, 0, 1)))


def _builtin_map(variables, table, k, what: str) -> BirMap:
    label, form = builtin_entry(table, k, what)
    return BirMap.from_form(variables, form, label)


def family_automorphism(k: int) -> BirMap:
    """The distinguished automorphism preserved by the k-th built-in family.

    k=1: order 4, negates the bi-2-form (index 2).
    k=2: order 8, multiplies the bi-2-form by -sqrt(-1) (index 4); its square
         is the k=1 map.
    k=3: order 8, negates the bi-2-form (index 2).
    """
    return _builtin_map(ENRIQUES_VARS, _AUTOMORPHISMS, k, "automorphism")


def k3_lift(k: int) -> BirMap:
    """A lift of the k-th automorphism (k in {1, 2}) to the K3 cover.

    The other lift is the composition with the deck flip; both are evaluated
    when two-form ratios are certified.
    """
    return _builtin_map(K3_VARS, _LIFTS, k, "lift")


def deck_flip() -> BirMap:
    """The involution (W, Y, Z) -> (-W, -Y, -Z) over the deck map of the base."""
    return BirMap.from_form(K3_VARS, _DECK_FLIP, "deck_flip")


# -- automorphisms of the quadric P1 x P1 -------------------------------------


class FixedPointData(NamedTuple):
    """Fixed-point count of a Mobius map or a QAut, with the parabolic flag."""

    count: int
    parabolic: bool


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

    def is_identity(self) -> bool:
        return self.b.is_zero() and self.c.is_zero() and self.a == self.d

    def __matmul__(self, other: "Mobius") -> "Mobius":
        return Mobius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mobius):
            return NotImplemented
        return (
            self.a == other.a and self.b == other.b
            and self.c == other.c and self.d == other.d
        )

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def fixed_points(self) -> FixedPointData:
        """Fixed-point count and parabolic flag of the action on P1.

        Fixed points solve c x^2 + (d - a) x - b = 0, with infinity fixed
        exactly when c = 0.  There is one, and the map is parabolic, exactly
        when the discriminant (d - a)^2 + 4bc vanishes (for c = 0: when
        a = d); there are two otherwise.
        """
        if self.is_identity():
            raise ValueError("the identity fixes everything")
        a, b, c, d = self.a, self.b, self.c, self.d
        parabolic = ((d - a) * (d - a) + b * 4 * c).is_zero()
        return FixedPointData(1 if parabolic else 2, parabolic)

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, QAut):
            return NotImplemented
        return self.shape == other.shape and self.m1 == other.m1 and self.m2 == other.m2

    def __hash__(self):
        return hash((self.shape, self.m1, self.m2))

    def ns_trace(self) -> int:
        """Trace on the rank-2 lattice spanned by the two ruling classes."""
        return 2 if self.shape == DIRECT else 0

    def __repr__(self) -> str:
        return f"QAut({self.shape}, {self.m1}, {self.m2})"


def qaut_fixed_points(g: QAut) -> FixedPointData:
    """Fixed-point count of a non-identity QAut on the quadric.

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
        c1, par1 = g.m1.fixed_points()
        c2, par2 = g.m2.fixed_points()
        return FixedPointData(c1 * c2, par1 or par2)
    h = g.m1 @ g.m2
    if h.is_identity():
        raise ValueError("this ruling swap fixes a curve, not isolated points")
    return h.fixed_points()


# -- the Klein-four normal form and square roots of the double inversion ------


def neg_both() -> QAut:
    """(Y, Z) -> (-Y, -Z), the residual deck map on the quadric."""
    return _qaut_of_form(_NEG_BOTH)


def inv_both() -> QAut:
    """(Y, Z) -> (1/Y, 1/Z), the base of the order-4 automorphism's lift."""
    return _qaut_of_form(_INV_BOTH)


def swap_root(sign: int) -> QAut:
    """(Y, Z) -> (sign/Z, sign*Y): the ruling-swapping square roots of
    the double inversion (sign in {1, -1})."""
    if sign not in _SWAP_ROOTS:
        raise ValueError("sign must be 1 or -1")
    return _qaut_of_form(_SWAP_ROOTS[sign])


# A monomial QAut (Y, Z) -> (zeta8^k1 * V1^e1, zeta8^k2 * V2^e2), with
# (V1, V2) = (Y, Z) for the direct shape and (Z, Y) for the swap shape, in
# exponent form (M, k): M is the signed permutation matrix in GL2(Z) whose
# row i holds the exponents of output coordinate i in (Y, Z), and k is in
# (Z/8)^2.

_UNITS = tuple(ZETA8 ** k for k in range(8))

# neg_both, inv_both and swap_root in exponent form
_NEG_BOTH = ((1, 0, 0, 1), (4, 4))
_INV_BOTH = ((-1, 0, 0, -1), (0, 0))
_SWAP_ROOTS = {1: ((0, -1, 1, 0), (0, 0)), -1: ((0, -1, 1, 0), (4, 4))}


def _monomial_mobius(e: int, k: int) -> Mobius:
    """x -> zeta8^k * x^e for e in {1, -1}, entered with leading entry 1 so
    that Mobius has no scale to divide out."""
    if e == -1:
        return Mobius(ZERO, ONE, _UNITS[-k % 8], ZERO)
    return Mobius(ONE, ZERO, ZERO, _UNITS[-k % 8])


def _exponent_matrix(shape: str, e1: int, e2: int) -> Tuple[int, int, int, int]:
    """M = ((m11, m12), (m21, m22)) as a flat tuple."""
    if shape == DIRECT:
        return (e1, 0, 0, e2)
    return (0, e1, e2, 0)


def _compose_monomial(g, h):
    """g after h in exponent form: (M, k) . (M', k') = (M M', k + M k' mod 8)."""
    (m11, m12, m21, m22), (k1, k2) = g
    (n11, n12, n21, n22), (j1, j2) = h
    return (
        (m11 * n11 + m12 * n21, m11 * n12 + m12 * n22,
         m21 * n11 + m22 * n21, m21 * n12 + m22 * n22),
        ((k1 + m11 * j1 + m12 * j2) % 8, (k2 + m21 * j1 + m22 * j2) % 8),
    )


def _inverse_monomial(g):
    """(M, k)^-1 = (M^-1, -M^-1 k mod 8); M is a signed permutation, so
    M^-1 is its transpose."""
    (m11, m12, m21, m22), (k1, k2) = g
    return (m11, m21, m12, m22), (-(m11 * k1 + m21 * k2) % 8, -(m12 * k1 + m22 * k2) % 8)


_IDENTITY_FORM = ((1, 0, 0, 1), (0, 0))


def _monomial_order(g) -> int:
    """The order of the monomial QAut with exponent form ``g``.  The 512
    forms (M, k), M a signed 2x2 permutation and k mod 8, make a finite
    group, so some power of g is the identity."""
    power, n = g, 1
    while power != _IDENTITY_FORM:
        power = _compose_monomial(g, power)
        n += 1
    return n


def _qaut_of_form(form) -> QAut:
    """The monomial QAut with exponent form ``form``."""
    (m11, m12, m21, m22), (k1, k2) = form
    if m12 == 0:
        return QAut(DIRECT, _monomial_mobius(m11, k1), _monomial_mobius(m22, k2))
    return QAut(SWAP, _monomial_mobius(m12, k1), _monomial_mobius(m21, k2))


def _square_roots(wanted):
    """The exponent forms, of all 2 shapes * 4 inversion patterns * 64 unit
    pairs, whose square is ``wanted``, in that order of enumeration.  The
    matrix part of a square is M^2 whatever k is, so the 64 unit pairs are
    tried only for the matrices M whose square is the wanted matrix."""
    roots = []
    for shape in (DIRECT, SWAP):
        for e1, e2 in itertools.product((1, -1), repeat=2):
            m = _exponent_matrix(shape, e1, e2)
            if _compose_monomial((m, (0, 0)), (m, (0, 0)))[0] == wanted[0]:
                roots += [
                    (m, k) for k in itertools.product(range(8), repeat=2)
                    if _compose_monomial((m, k), (m, k)) == wanted
                ]
    return roots


class K4CheckResult(NamedTuple):
    """Outcome of the Klein-four normal form verification."""

    klein_ok: bool
    candidates_ok: bool
    roots: List[QAut]
    up_to_inverse_ok: bool

    @property
    def direct_roots(self) -> List[QAut]:
        return [g for g in self.roots if g.shape == DIRECT]

    @property
    def ok(self) -> bool:
        return (
            self.klein_ok
            and self.candidates_ok
            and not self.direct_roots
            and self.up_to_inverse_ok
        )

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
    iota, phi1 = _NEG_BOTH, _INV_BOTH
    plus, minus = _SWAP_ROOTS[1], _SWAP_ROOTS[-1]
    prod = _compose_monomial(iota, phi1)
    klein_ok = (
        _monomial_order(iota) == 2
        and _monomial_order(phi1) == 2
        and iota != phi1
        and prod == _compose_monomial(phi1, iota)
        and _monomial_order(prod) == 2
    )
    candidates_ok = (
        _compose_monomial(plus, plus) == phi1
        and _compose_monomial(minus, minus) == phi1
        and _monomial_order(plus) == 4
        and _monomial_order(minus) == 4
    )
    found = _square_roots(phi1)
    expected = {plus, minus, _inverse_monomial(plus), _inverse_monomial(minus)}
    # every root is then a candidate or the inverse of one
    up_to_inverse_ok = set(found) == expected
    roots = [_qaut_of_form(root) for root in found]
    return K4CheckResult(klein_ok, candidates_ok, roots, up_to_inverse_ok)
