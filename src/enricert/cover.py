"""Double covers of the quadric and their K3 covers.

The central object is a family of surfaces w^2 = z * f(y, z) where f is a
bidegree-constrained branch polynomial with formal parameters: the classical
double-plane model of a nodal Enriques surface.  The admissible monomials
y^i z^j of f satisfy 4 <= i + 2j <= 8 and 0 <= i, j <= 4.

The K3 cover substitutes (y, z) = (Y*Z, Z^2), divides the branch data by Z^4
and introduces W = w / Z^3, producing W^2 = g(Y, Z) with g of bidegree at most
(4, 4), invariant under the deck map (Y, Z) -> (-Y, -Z).

A family only defines its relation polynomial S (z*f downstairs, g upstairs);
maps act on the covers through the a + b*w form of their cover coordinate,
which lives in the maps module.

This module owns the two surface kinds: their names (ENRIQUES, K3),
coordinates (KIND_VARIABLES) and branch support (BRANCH_SUPPORT).  It also
owns the tags of the built-in families (BUILTIN_FAMILIES), which the
certificate's family filter and the command line's --family read; the
unknown-tag rule of every built-in table (builtin_entry); and a family's
parameters, the ones its branch uses (branch_parameters).
"""

from __future__ import annotations

from typing import Dict, Mapping, NamedTuple, Tuple

from .errors import InvariantError, PreconditionError
from .field import ONE, SQRT_M1
from .poly import (
    MPoly,
    PARAMETERS,
    RatFunc,
    as_ratfunc,
    slot,
)


def horikawa_support() -> frozenset:
    """Admissible branch exponents: {(i, j) : 4 <= i+2j <= 8, 0 <= i,j <= 4}."""
    return frozenset(
        (i, j)
        for i in range(5)
        for j in range(5)
        if 4 <= i + 2 * j <= 8
    )


ENRIQUES = "enriques_horikawa"
K3 = "k3_cover"
#: Each kind's coordinates, cover variable first.
ENRIQUES_VARS = ("w", "y", "z")
K3_VARS = ("W", "Y", "Z")
KIND_VARIABLES = {ENRIQUES: ENRIQUES_VARS, K3: K3_VARS}
#: Each kind's admissible exponents (i, j) of a branch monomial in its two
#: base coordinates, and the bound as messages print it.
BRANCH_SUPPORT = {
    ENRIQUES: (horikawa_support(), "4 <= i+2j <= 8"),
    K3: (frozenset((i, j) for i in range(5) for j in range(5)), "bidegree (4, 4)"),
}


class SurfaceFamily:
    """A parameter family w^2 = z*f(y,z) (kind enriques_horikawa) or
    W^2 = g(Y,Z) (kind k3_cover).

    The branch polynomial is affine-linear in the parameters: every
    coefficient is a field constant plus field multiples of parameters.
    """

    def __init__(self, name: str, kind: str, branch: MPoly, parameters: Tuple[str, ...]):
        if kind not in KIND_VARIABLES:
            raise InvariantError(f"unknown family kind {kind!r}")
        self.name = name
        self.kind = kind
        self.branch = branch
        self.parameters = tuple(parameters)
        self._validate()

    # -- structure -----------------------------------------------------------

    @property
    def variables(self) -> Tuple[str, str, str]:
        """The surface's coordinates, cover variable first: the variables
        of a map that acts on it."""
        return KIND_VARIABLES[self.kind]

    @property
    def cover_var(self) -> str:
        return self.variables[0]

    @property
    def base_vars(self) -> Tuple[str, str]:
        return self.variables[1:]

    def relation(self) -> MPoly:
        """The polynomial S with cover equation (cover_var)^2 = S."""
        if self.kind == ENRIQUES:
            return MPoly.var("z") * self.branch
        return self.branch

    def _validate(self) -> None:
        if self.branch.is_zero():
            raise InvariantError("branch polynomial is zero")
        if "alpha" in self.parameters:
            raise InvariantError("alpha is reserved for parameter actions")
        for i, p in enumerate(self.parameters):
            if p not in PARAMETERS:
                raise InvariantError(f"{p!r} is not a parameter variable")
            if p in self.parameters[:i]:
                raise InvariantError(f"parameter {p!r} of {self.name} is repeated")
        allowed = set(self.base_vars) | set(self.parameters)
        used = set(self.branch.variables())
        if not used <= allowed:
            raise InvariantError(
                f"branch uses variables {sorted(used - allowed)} outside "
                f"{sorted(allowed)}"
            )
        if self.branch.parameter_degree() > 1:
            raise InvariantError("branch is not affine-linear in the parameters")
        admissible, bound = BRANCH_SUPPORT[self.kind]
        support = self.geometric_support()
        bad = set(support) - admissible
        if bad:
            raise InvariantError(f"branch support {sorted(bad)} outside {bound}")
        if self.kind == K3 and any((i + j) % 2 for i, j in support):
            raise InvariantError("cover branch is not invariant under (Y,Z) -> (-Y,-Z)")

    def geometric_support(self) -> Tuple[Tuple[int, int], ...]:
        iy, iz = (slot(v) for v in self.base_vars)
        return tuple(sorted({(e[iy], e[iz]) for e in self.branch.support()}))

    def monomial_coefficient(self, i: int, j: int) -> MPoly:
        """Coefficient of base^i * base2^j as a polynomial in the parameters."""
        vy, vz = self.base_vars
        return self.branch.coefficient({vy: i, vz: j})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SurfaceFamily)
            and self.kind == other.kind
            and self.parameters == other.parameters
            and self.branch == other.branch
        )

    def __repr__(self) -> str:
        return f"SurfaceFamily({self.name}, {self.kind}, params={list(self.parameters)})"


# -- the three built-in families --------------------------------------------
#
# Coefficient tables: (i, j, parameter, scalar).  Each row contributes
# scalar * parameter * y^i z^j to the branch polynomial.

_I = SQRT_M1

_FAMILY_ROWS = {
    1: (
        (4, 2, "A", ONE), (0, 2, "A", -ONE),
        (4, 1, "B", ONE), (0, 3, "B", -ONE),
        (4, 0, "C", ONE), (0, 4, "C", -ONE),
        (3, 2, "D", ONE), (1, 2, "D", -ONE),
        (3, 1, "E", ONE), (1, 3, "E", -ONE),
        (2, 1, "F", ONE), (2, 3, "F", -ONE),
    ),
    2: (
        (4, 2, "A", ONE), (0, 4, "A", _I), (0, 2, "A", -ONE), (4, 0, "A", -_I),
        (4, 1, "B", ONE), (2, 3, "B", _I), (0, 3, "B", -ONE), (2, 1, "B", -_I),
        (3, 2, "D", ONE), (1, 3, "D", _I), (1, 2, "D", -ONE), (3, 1, "D", -_I),
    ),
    3: (
        (4, 2, "A", ONE),
        (4, 0, "B", ONE), (0, 4, "B", ONE),
        (3, 1, "C", ONE), (1, 3, "C", -_I),
        (0, 2, "D", ONE),
    ),
}

#: The built-in family tags, as family(k) takes them.
BUILTIN_FAMILIES = tuple(_FAMILY_ROWS)


def builtin_entry(table: Mapping, k, what: str):
    """The entry of a built-in table under tag k; an unknown tag is a
    ValueError that names the table's tags."""
    if k not in table:
        *rest, last = table
        raise ValueError(
            f"no built-in {what} {k}; choose {', '.join(map(str, rest))} or {last}"
        )
    return table[k]


def branch_parameters(branch: MPoly) -> Tuple[str, ...]:
    """The parameters a branch polynomial uses, in layout order."""
    return tuple(p for p in branch.variables() if p in PARAMETERS)


def family(k: int) -> SurfaceFamily:
    """The k-th built-in branch family (k in {1, 2, 3}).

    Family 1 is the full 6-parameter family invariant under the order-4
    automorphism; family 2 is its 3-parameter subfamily invariant under the
    order-8 automorphism whose square is the order-4 one; family 3 is the
    4-parameter family invariant under the other order-8 automorphism.
    """
    branch = MPoly.sum_monomials(
        ({"y": i, "z": j, param: 1}, scalar)
        for i, j, param, scalar in builtin_entry(_FAMILY_ROWS, k, "family")
    )
    return SurfaceFamily(f"family{k}", ENRIQUES, branch, branch_parameters(branch))


def specialization_to_family2() -> Dict[str, MPoly]:
    """Parameter substitution carrying family 1 onto family 2."""
    a = MPoly.var("A")
    b = MPoly.var("B")
    d = MPoly.var("D")
    return {"C": a.scale(-_I), "E": d.scale(-_I), "F": b.scale(-_I)}


def specialization_one_param() -> Dict[str, MPoly]:
    """Substitution collapsing family 1 to the classical one-parameter
    subfamily with free parameter C."""
    c = MPoly.var("C")
    one = MPoly.const(1)
    zero = MPoly.zero()
    return {"A": one, "B": -c - one, "D": zero, "E": zero, "F": one - c}


def specialize(fam: SurfaceFamily, substitution: Mapping[str, object]) -> SurfaceFamily:
    """Substitute affine-linear parameter expressions into a family.

    Values may be MPoly, RatFunc, field constants or ints; they must be
    polynomial, involve parameters only, and have parameter degree at most 1
    so the result stays affine-linear.  The result is re-validated, so a
    substitution that escapes the admissible support is rejected too.
    """
    assignment: Dict[str, MPoly] = {}
    for name, value in substitution.items():
        if name not in fam.parameters:
            raise InvariantError(f"{name!r} is not a parameter of {fam.name}")
        rf = as_ratfunc(value)
        if not rf.is_polynomial():
            raise InvariantError(f"substitution for {name} is not polynomial")
        p = rf.as_poly()
        geometric = set(p.variables()) - PARAMETERS
        if geometric:
            raise InvariantError(
                f"substitution for {name} uses geometric variables {sorted(geometric)}"
            )
        if p.parameter_degree() > 1:
            raise InvariantError(
                f"substitution for {name} is not affine-linear in the parameters"
            )
        assignment[name] = p
    branch = fam.branch.substitute(assignment).as_poly()
    return SurfaceFamily(f"{fam.name}_special", fam.kind, branch, branch_parameters(branch))


def k3_cover(fam: SurfaceFamily) -> SurfaceFamily:
    """The K3 double cover W^2 = g(Y, Z) of an enriques_horikawa family.

    g = f(Y*Z, Z^2) / Z^4 is an exact polynomial quotient precisely because
    every branch monomial satisfies i + 2j >= 4; the quotient maps y^i z^j to
    Y^i Z^(i+2j-4).
    """
    if fam.kind != ENRIQUES:
        raise PreconditionError("k3_cover expects an enriques_horikawa family")
    images = {"y": MPoly.monomial({"Y": 1, "Z": 1}), "z": MPoly.monomial({"Z": 2})}
    pulled = fam.branch.substitute(images).as_poly()
    # RatFunc shifts out the common monomial content Z^4 and keeps g
    g = RatFunc(pulled, MPoly.monomial({"Z": 4})).as_poly()
    return SurfaceFamily(f"{fam.name}_cover", K3, g, fam.parameters)


class FreenessResult(NamedTuple):
    """Outcome of the corner-point fixed-point-freeness check.

    corners maps each corner point, in the order (0,0), (inf,0), (0,inf),
    (inf,inf), to its coefficient; the involution is free when none is zero.
    """

    corners: Dict[str, MPoly]

    @property
    def free(self) -> bool:
        return all(not c.is_zero() for c in self.corners.values())

    def __bool__(self) -> bool:
        return self.free

    def __repr__(self) -> str:
        vals = ", ".join(f"{k}: {v}" for k, v in self.corners.items())
        return f"FreenessResult(free={self.free}, {vals})"


def epsilon_fixed_point_free(cover: SurfaceFamily) -> FreenessResult:
    """Check that the lift (W,Y,Z) -> (-W,-Y,-Z) of the deck map acts freely
    on a K3 cover W^2 = g.

    Its base map fixes exactly the four points {0, inf} x {0, inf}; a fixed
    point on the cover would need W = 0 there, i.e. a vanishing corner value
    of the bidegree-(4,4) homogenization of g.  The four corner coefficients
    (of 1, Y^4, Z^4, Y^4 Z^4) are returned as the witness; freeness holds for
    parameter values avoiding their common zero locus.
    """
    if cover.kind != K3:
        raise PreconditionError("epsilon_fixed_point_free expects a k3_cover family")
    g = cover.branch
    corners = {
        "(0,0)": g.coefficient({"Y": 0, "Z": 0}),
        "(inf,0)": g.coefficient({"Y": 4, "Z": 0}),
        "(0,inf)": g.coefficient({"Y": 0, "Z": 4}),
        "(inf,inf)": g.coefficient({"Y": 4, "Z": 4}),
    }
    return FreenessResult(corners)

