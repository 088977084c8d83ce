"""Pullback ratios of the canonical forms on the covers.

The double-plane model w^2 = S, S = z*f, carries the bi-2-form
z * (dy ^ dz / w)^2.  A coordinate automorphism phi with phi*w = a + b*w
multiplies it by

    (phi*z / z) * J(phi_y, phi_z)^2 * w^2 / (phi*w)^2,

where J is the base Jacobian determinant.  Once phi preserves the equation,
the odd part 2ab of (phi*w)^2 vanishes, so a = 0 or b = 0.  With a = 0,
(phi*w)^2 = b^2 * w^2 and the ratio is (phi*z / z) * J^2 / b^2; with b = 0
it is (phi*z / z) * J^2 * S / a^2.  Both are read from the cover coordinate,
so the ratio never divides by the pulled-back relation S(phi*y, phi*z),
which it equals as a function (b^2 * S = S(phi*y, phi*z) when a = 0).  The
K3 cover W^2 = g carries the honest 2-form dY ^ dZ / W, whose ratio under a
lift with phi*W = a + b*W is J * W / (a + b*W); invariance makes ab = 0, so
the ratio is J / b when a = 0 and has a nonzero W-part otherwise.  Both
ratios must come out constant; the engine certifies constancy symbolically
and returns the constant, whose multiplicative order is the index of the
automorphism.  Each ratio takes the InvarianceResult already certified for
(fam, phi) rather than certifying it again; a result that does not hold
raises PreconditionError.

A monomial map with a = 0, x_v -> c_v * x^(M_v), has the one-term Jacobian
J = det(M) * c_y * c_z * x^(M_y + M_z - e_y - e_z), so each ratio is one
term, read from the map's exponent form (BirMap.exponent_form).  When its
exponent is zero the ratio is the constant c_z * (det * c_y * c_z)^2 / c_w^2
for the bi-2-form and det * c_y * c_z / c_w for the K3 2-form.  A monomial
short path hands over only where it would form a key over DEGREE_CAP, and
this one forms none, so near the caps it returns a ratio where the RatFunc
bodies, _bitwoform_by_ratfuncs and _k3_twoform_by_ratfuncs, would raise.
They take a map with no exponent form, a != 0 or a non-constant ratio.
"""

from __future__ import annotations

from .errors import (
    NonConstantRatioError,
    NotRootOfUnityError,
    PreconditionError,
)
from .field import Cyclo, root_of_unity_order
from .poly import RatFunc, jacobian_det2
from .cover import ENRIQUES, K3, SurfaceFamily
from .maps import BirMap, InvarianceResult, require_acts_on


def _constant_of(ratio: RatFunc, what: str) -> Cyclo:
    value = ratio.as_constant()
    if value is None:
        raise NonConstantRatioError(f"{what} is not constant: {ratio}")
    return value


def _jacobian(fam: SurfaceFamily, phi: BirMap) -> RatFunc:
    b1, b2 = fam.base_vars
    return jacobian_det2(phi.coords[b1], phi.coords[b2], b1, b2)


def _monomial_parts(phi: BirMap):
    """J, b and phi*z / z for a monomial phi with a = 0, each as (scalar,
    exponent over the base variables), or None; see the module docstring.
    M is the base block of the exponent matrix, and J = 0 when det(M) = 0,
    as in the RatFunc bodies."""
    form = phi.exponent_form
    if form is None:
        return None
    (cw, (kw, *mw)), (cy, (_, *my)), (cz, (_, *mz)) = form
    if kw != 1:
        return None
    det = my[0] * mz[1] - my[1] * mz[0]
    jacobian = (cy * cz * det, (my[0] + mz[0] - 1, my[1] + mz[1] - 1))
    return jacobian, (cw, tuple(mw)), (cz, (mz[0], mz[1] - 1))


def _require(
    fam: SurfaceFamily, phi: BirMap, invariance: InvarianceResult, kind: str, form: str
) -> None:
    """The preconditions of both ratios: a family of the ratio's kind, a
    map over its coordinates, and certified invariance."""
    if fam.kind != kind:
        raise PreconditionError(f"{form} ratios live on {kind} families")
    require_acts_on(fam, phi)
    if not invariance:
        raise PreconditionError(f"{phi.label} does not preserve the equation of {fam.name}")


def bitwoform_pullback_ratio(
    fam: SurfaceFamily, phi: BirMap, invariance: InvarianceResult
) -> Cyclo:
    """The constant multiplying the bi-2-form under phi.

    invariance is phi's certified preservation of the defining equation; the
    ratio is then a root of unity whose order is the index of the
    automorphism.
    """
    _require(fam, phi, invariance, ENRIQUES, "bi-2-form")
    parts = _monomial_parts(phi)
    if parts is not None:
        (jc, je), (bc, be), (zc, ze) = parts
        # (phi*z / z) * J^2 / b^2
        if all(z + 2 * (j - b) == 0 for z, j, b in zip(ze, je, be)):
            return zc * jc * jc / (bc * bc)
    return _bitwoform_by_ratfuncs(fam, phi)


def _bitwoform_by_ratfuncs(fam: SurfaceFamily, phi: BirMap) -> Cyclo:
    """bitwoform_pullback_ratio in RatFunc arithmetic, for any map."""
    jac = _jacobian(fam, phi)
    b2 = fam.base_vars[1]
    scale = phi.coords[b2] / RatFunc.var(b2) * jac * jac
    a, b = phi.cover_parts()
    if a.is_zero():
        ratio = scale / (b * b)
    else:
        # invariance forces b = 0 here, so (phi*w)^2 = a^2
        ratio = scale * RatFunc.from_poly(fam.relation()) / (a * a)
    return _constant_of(ratio, f"bi-2-form ratio of {phi.label}")


def k3_twoform_ratio(
    fam: SurfaceFamily, phi: BirMap, invariance: InvarianceResult
) -> Cyclo:
    """The constant multiplying dY ^ dZ / W under a lift to the K3 cover,
    given phi's certified preservation of the cover equation."""
    _require(fam, phi, invariance, K3, "2-form")
    parts = _monomial_parts(phi)
    if parts is not None:
        (jc, je), (bc, be), _ = parts
        # J / b
        if je == be:
            return jc / bc
    return _k3_twoform_by_ratfuncs(fam, phi)


def _k3_twoform_by_ratfuncs(fam: SurfaceFamily, phi: BirMap) -> Cyclo:
    """k3_twoform_ratio in RatFunc arithmetic, for any map."""
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
