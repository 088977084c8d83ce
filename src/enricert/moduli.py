"""Moduli counts: effective parameters modulo declared rescaling actions.

A parameter action is a diagonal substitution P -> alpha^k(P) * P on the
parameters together with a geometric coordinate change and an integer telling
how w^2 rescales.  check_parameter_action certifies the defining identity

    S(gamma(y, z); P) = alpha^s * S(y, z; rho(P))

exactly, with alpha a formal variable and S the family's relation: z * f on
an Enriques family, g on a K3 cover W^2 = g (in Y, Z).  When s is odd the
w-rescaling needs a square root of alpha; that exists over the complex
numbers and is recorded, never constructed.  The number of moduli of a
family is its parameter count minus the rank of the integer matrix of
action weights.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, NamedTuple, Tuple

from .errors import InvariantError, PreconditionError
from .lattices import row_reduce
from .poly import MPoly, PARAMETERS, RatFunc, as_ratfunc
from .cover import SurfaceFamily


class ParameterAction:
    """A one-parameter family of isomorphisms rescaling the parameters.

    weights maps each parameter name to the alpha-exponent of its rescaling;
    geometric maps the base coordinates; w_square_scale is the alpha-exponent
    by which the square of the cover coordinate rescales.
    """

    def __init__(
        self,
        name: str,
        weights: Mapping[str, int],
        geometric: Mapping[str, object],
        w_square_scale: int,
    ):
        self.name = name
        self.weights = {k: int(v) for k, v in weights.items()}
        self.geometric = {k: as_ratfunc(v) for k, v in geometric.items()}
        self.w_square_scale = int(w_square_scale)
        for v in self.geometric:
            if v in PARAMETERS:
                raise InvariantError(
                    f"geometric part of action {name!r} maps parameter {v!r}"
                )

    def needs_square_root(self) -> bool:
        """True when rescaling w itself requires a square root of alpha."""
        return self.w_square_scale % 2 != 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParameterAction):
            return NotImplemented
        return (
            self.name == other.name
            and self.weights == other.weights
            and self.w_square_scale == other.w_square_scale
            and self.geometric == other.geometric
        )

    def __repr__(self) -> str:
        return f"ParameterAction({self.name}, weights={self.weights})"


def homothety(fam: SurfaceFamily) -> ParameterAction:
    """Scaling every parameter at once; w rescales by a square root."""
    return ParameterAction(
        "homothety",
        {p: 1 for p in fam.parameters},
        {},
        w_square_scale=-1,
    )


def diagonal_base_scaling() -> ParameterAction:
    """(y, z) -> (alpha*y, alpha*z), matching the 4-parameter family whose
    branch monomials have y-z-degrees 6, 4, 4, 2."""
    alpha = RatFunc.var("alpha")
    return ParameterAction(
        "diagonal_base_scaling",
        {"A": 6, "B": 4, "C": 4, "D": 2},
        {"y": alpha * RatFunc.var("y"), "z": alpha * RatFunc.var("z")},
        w_square_scale=1,
    )


class ActionCheckResult(NamedTuple):
    """Witness of a parameter-action identity check; zero when it holds."""

    witness: MPoly
    action: ParameterAction

    @property
    def holds(self) -> bool:
        return self.witness.is_zero()

    def __bool__(self) -> bool:
        return self.holds


def check_parameter_action(
    fam: SurfaceFamily, action: ParameterAction
) -> ActionCheckResult:
    """Certify that the action maps the family to itself.

    Substitutes the geometric change into the family's relation, the weight
    rescaling into the parameters, and compares after multiplying by
    alpha^s.  The witness is the numerator of the difference.
    """
    missing = set(fam.parameters) - set(action.weights)
    if missing:
        raise PreconditionError(
            f"action {action.name!r} assigns no weight to {sorted(missing)}"
        )
    relation = RatFunc.from_poly(fam.relation())
    lhs = relation.substitute(action.geometric)
    alpha = RatFunc.var("alpha")
    rho = {
        p: (alpha ** action.weights[p]) * RatFunc.var(p)
        for p in fam.parameters
    }
    rhs = (alpha ** action.w_square_scale) * relation.substitute(rho)
    diff = lhs - rhs
    return ActionCheckResult(diff.num, action)


def weight_matrix(
    fam: SurfaceFamily, actions: List[ParameterAction]
) -> Tuple[Tuple[int, ...], ...]:
    return tuple(
        tuple(a.weights[p] for p in fam.parameters) for a in actions
    )


def moduli_number(fam: SurfaceFamily, checked: Iterable[ActionCheckResult]) -> int:
    """Parameter count minus the rank of the action weight matrix.

    Takes the check_parameter_action results of the actions, in order, and
    requires each to hold.  Whether the listed actions generate everything
    that identifies members is an input assumption; the count is exact for
    the list given.
    """
    actions = []
    for result in checked:
        if not result:
            raise PreconditionError(
                f"action {result.action.name!r} does not preserve {fam.name}: "
                f"witness {result.witness}"
            )
        actions.append(result.action)
    return len(fam.parameters) - row_reduce(weight_matrix(fam, actions))[0]
