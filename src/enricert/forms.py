"""Pullback ratios of the canonical forms on the covers.

The double-plane model w^2 = S, S = z*f, carries the bi-2-form
z * (dy ^ dz / w)^2.  A coordinate automorphism phi multiplies it by

    (phi*z / z) * J(phi_y, phi_z)^2 * w^2 / (phi*w)^2,

where J is the base Jacobian determinant.  Once phi preserves the equation,
(phi*w)^2 = S(phi*y, phi*z) on the surface, so the ratio is the base function
(phi*z / z) * J^2 * S / S(phi*y, phi*z).  The K3 cover W^2 = g carries the
honest 2-form dY ^ dZ / W, whose ratio under a lift with phi*W = a + b*W is
J * W / (a + b*W); invariance makes ab = 0, so the ratio is J / b when a = 0
and has a nonzero W-part otherwise.  Both ratios must come out constant; the
engine certifies constancy symbolically and returns the constant, whose
multiplicative order is the index of the automorphism.  Each ratio takes the
InvarianceResult already certified for (fam, phi) rather than certifying it
again; a result that does not hold raises PreconditionError.
"""

from __future__ import annotations

from .errors import (
    NonConstantRatioError,
    NotRootOfUnityError,
    PreconditionError,
)
from .field import Cyclo, root_of_unity_order
from .poly import RatFunc, jacobian_det2
from .cover import SurfaceFamily
from .maps import BirMap, InvarianceResult


def _constant_of(ratio: RatFunc, what: str) -> Cyclo:
    value = ratio.as_constant()
    if value is None:
        raise NonConstantRatioError(f"{what} is not constant: {ratio}")
    return value


def _jacobian(fam: SurfaceFamily, phi: BirMap) -> RatFunc:
    b1, b2 = fam.base_vars
    return jacobian_det2(phi.coords[b1], phi.coords[b2], b1, b2)


def bitwoform_pullback_ratio(
    fam: SurfaceFamily, phi: BirMap, invariance: InvarianceResult
) -> Cyclo:
    """The constant multiplying the bi-2-form under phi.

    invariance is phi's certified preservation of the defining equation; the
    ratio is then a root of unity whose order is the index of the
    automorphism.
    """
    if fam.kind != "enriques_horikawa":
        raise PreconditionError("bi-2-form ratios live on enriques_horikawa families")
    if not invariance:
        raise PreconditionError(f"{phi.label} does not preserve the equation of {fam.name}")
    jac = _jacobian(fam, phi)
    b2 = fam.base_vars[1]
    z_ratio = phi.coords[b2] / RatFunc.var(b2)
    ratio = z_ratio * jac * jac * RatFunc.from_poly(fam.relation()) / invariance.pulled
    return _constant_of(ratio, f"bi-2-form ratio of {phi.label}")


def k3_twoform_ratio(
    fam: SurfaceFamily, phi: BirMap, invariance: InvarianceResult
) -> Cyclo:
    """The constant multiplying dY ^ dZ / W under a lift to the K3 cover,
    given phi's certified preservation of the cover equation."""
    if fam.kind != "k3_cover":
        raise PreconditionError("2-form ratios live on k3_cover families")
    if not invariance:
        raise PreconditionError(f"{phi.label} does not preserve the equation of {fam.name}")
    jac = _jacobian(fam, phi)
    a, b = phi.cover_parts()
    what = f"2-form ratio of {phi.label}"
    if not a.is_zero():
        # invariance forces b = 0 here, so the ratio is (J / a) * W
        raise NonConstantRatioError(
            f"{what} has a nonzero odd part {jac / a} in the cover variable"
        )
    return _constant_of(jac / b, what)


def index_of(ratio: Cyclo) -> int:
    """The multiplicative order of a certified ratio.

    This is the index of the automorphism: 1 means the form is preserved
    (semi-symplectic action), larger values quantify the failure.
    """
    n = root_of_unity_order(ratio)
    if n is None:
        raise NotRootOfUnityError(f"{ratio} is not a root of unity")
    return n
