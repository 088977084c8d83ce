"""Pullback ratios of the canonical forms and the derived indices."""

import pytest
from hypothesis import example, given, settings, strategies as st

from enricert import forms
from enricert.cover import ENRIQUES, SurfaceFamily, family, k3_cover
from enricert.errors import (
    DegreeCapError,
    NonConstantRatioError,
    NotRootOfUnityError,
    PreconditionError,
    SizeCapError,
)
from enricert.field import Cyclo, ONE, SQRT_M1, ZETA8
from enricert.forms import (
    bitwoform_pullback_ratio,
    index_of,
    k3_twoform_ratio,
)
from enricert.maps import (
    BirMap,
    ENRIQUES_VARS,
    InvarianceResult,
    K3_VARS,
    check_equation_invariance,
    compose,
    deck_flip,
    family_automorphism,
    k3_lift,
)
from enricert.parsing import parse_expression
from enricert.poly import VARIABLES, MPoly, RatFunc, jacobian_det2

from _helpers import (
    BASE_BLOCKS, SINGULAR_BLOCKS, builtin_and_document_families, document_pairs, identity_map,
    monomial_maps, raised_degree_cap,
)

I = SQRT_M1


def biform(fam, phi):
    return bitwoform_pullback_ratio(fam, phi, check_equation_invariance(fam, phi))


def twoform(cov, phi):
    return k3_twoform_ratio(cov, phi, check_equation_invariance(cov, phi))


_HOLDS = InvarianceResult(MPoly.zero(), MPoly.zero())


def test_builtin_ratios_and_indices():
    r1 = biform(family(1), family_automorphism(1))
    assert r1 == -ONE and index_of(r1) == 2
    r2 = biform(family(2), family_automorphism(2))
    assert r2 == -I and index_of(r2) == 4
    r3 = biform(family(3), family_automorphism(3))
    assert r3 == -ONE and index_of(r3) == 2


def test_identity_is_semi_symplectic():
    r = biform(family(1), identity_map())
    assert r == ONE and index_of(r) == 1


def test_deck_sign_dies_in_the_bitwoform():
    # w -> -w over the identity on the base rescales the form by (-1)^2 = 1
    flip = BirMap.from_strings(ENRIQUES_VARS, label="flip", w="-w", y="y", z="z")
    r = biform(family(1), flip)
    assert r == ONE and index_of(r) == 1


def test_ratio_is_multiplicative_along_powers():
    fam = family(2)
    sigma = family_automorphism(2)
    current = sigma
    for k in range(1, 9):
        ratio = biform(fam, current)
        assert ratio == (-I) ** k
        current = compose(sigma, current)


def test_k3_lift_ratios():
    cov1 = k3_cover(family(1))
    r = twoform(cov1, k3_lift(1))
    assert r == -I and index_of(r) == 4
    r_flip = twoform(cov1, compose(k3_lift(1), deck_flip()))
    assert r_flip == I and index_of(r_flip) == 4

    cov2 = k3_cover(family(2))
    r = twoform(cov2, k3_lift(2))
    assert r == -(ZETA8 ** 3) and index_of(r) == 8
    r_flip = twoform(cov2, compose(k3_lift(2), deck_flip()))
    assert r_flip == ZETA8 ** 3 and index_of(r_flip) == 8


def test_both_lift_ratios_square_to_the_order4_value():
    cov2 = k3_cover(family(2))
    for lift in (k3_lift(2), compose(k3_lift(2), deck_flip())):
        square = compose(lift, lift)
        assert twoform(cov2, square) == -I


def test_deck_flip_negates_the_twoform():
    for k in (1, 2, 3):
        r = twoform(k3_cover(family(k)), deck_flip())
        assert r == -ONE and index_of(r) == 2


def test_bitwoform_requires_enriques_family():
    with pytest.raises(PreconditionError):
        biform(k3_cover(family(1)), k3_lift(1))


def test_twoform_requires_cover_family():
    with pytest.raises(PreconditionError):
        twoform(family(1), family_automorphism(1))


def test_ratio_requires_equation_invariance():
    bad = BirMap.from_strings(
        ENRIQUES_VARS, label="bad", w="w/(y^2*z^3)", y="1/y", z="1/z"
    )
    with pytest.raises(PreconditionError, match="does not preserve"):
        biform(family(1), bad)


def test_ratio_on_wrong_family_is_rejected_not_computed():
    # the order-8 map does not preserve family 1, so no ratio exists
    with pytest.raises(PreconditionError):
        biform(family(1), family_automorphism(2))


def test_ratios_reject_a_map_of_the_other_kind():
    # any invariance result that holds: the map's variables are checked
    # first, with the text check_equation_invariance raises
    cases = [
        (bitwoform_pullback_ratio, family(1), k3_lift(1)),
        (k3_twoform_ratio, k3_cover(family(1)), family_automorphism(1)),
    ]
    for ratio, fam, phi in cases:
        with pytest.raises(PreconditionError) as invariance:
            check_equation_invariance(fam, phi)
        with pytest.raises(PreconditionError, match="cannot act on a family over") as raised:
            ratio(fam, phi, _HOLDS)
        assert str(raised.value) == str(invariance.value)


def test_index_of_non_root_of_unity():
    with pytest.raises(NotRootOfUnityError):
        index_of(Cyclo.coerce(2))


def test_ratios_take_the_invariance_they_are_given():
    # the ratios do not certify invariance again: a failing result handed
    # down for a map that does preserve the equation is still refused
    failing = check_equation_invariance(family(1), family_automorphism(2))
    assert not failing.holds
    with pytest.raises(PreconditionError, match="aut_4_2 does not preserve"):
        bitwoform_pullback_ratio(family(1), family_automorphism(1), failing)
    cov = k3_cover(family(1))
    with pytest.raises(PreconditionError, match="does not preserve"):
        k3_twoform_ratio(cov, deck_flip(), failing)


def test_twoform_ratio_with_an_even_part_is_not_constant():
    # on W^2 = Y^2 Z^2 the map W -> Y*Z preserves the equation, but
    # dY ^ dZ / W pulls back to dY ^ dZ / (Y*Z), which is not a multiple
    # of the form
    cov = SurfaceFamily("square", "k3_cover", MPoly.monomial({"Y": 2, "Z": 2}), ())
    phi = BirMap.from_strings(K3_VARS, label="even", W="Y*Z", Y="Y", Z="Z")
    assert check_equation_invariance(cov, phi).holds
    with pytest.raises(NonConstantRatioError, match="nonzero odd part 1 / \\(Y\\*Z\\) in the cover"):
        twoform(cov, phi)


def test_bitwoform_ratio_with_an_even_part():
    # S = z^2 (y^2 + z)^2 is a square, so w -> z (y^2 + z) + 0*w preserves
    # w^2 = S; the ratio is then (phi*z / z) * J^2 * S / a^2
    f = parse_expression("y^4*z + 2*y^2*z^2 + z^3").as_poly()
    fam = SurfaceFamily("square", "enriques_horikawa", f, ())
    phi = BirMap.from_strings(ENRIQUES_VARS, label="even", w="y^2*z + z^2", y="y", z="z")
    assert check_equation_invariance(fam, phi).holds
    r = biform(fam, phi)
    assert r == ONE and index_of(r) == 1
    stretch = BirMap.from_strings(
        ENRIQUES_VARS, label="even", w="y^2*z^3 + z^2", y="y*z", z="z"
    )
    assert check_equation_invariance(fam, stretch).holds
    with pytest.raises(NonConstantRatioError) as err:
        biform(fam, stretch)
    assert str(err.value) == (
        "bi-2-form ratio of even is not constant: "
        "(y^4 + 2*y^2*z + z^2) / (y^4*z^2 + 2*y^2*z + 1)"
    )


def test_a_non_constant_bitwoform_ratio_prints_reduced():
    # y -> z / y fixes S = z^3 + z^4, and the ratio is J^2 = z^2 / y^4.
    # Read from the cover coordinate (b = 1) it prints reduced; the quotient
    # S / S(phi*y, phi*z) printed (z^3 + z^2) / (y^4*z + y^4), the same
    # function with S's factor z + 1 left in.
    fam = SurfaceFamily("t", "enriques_horikawa", parse_expression("z^2 + z^3").as_poly(), ())
    phi = BirMap.from_strings(ENRIQUES_VARS, label="m", w="w", y="z / y", z="z")
    assert check_equation_invariance(fam, phi).holds
    with pytest.raises(NonConstantRatioError) as err:
        biform(fam, phi)
    assert str(err.value) == "bi-2-form ratio of m is not constant: z^2 / y^4"
    assert _quotient_ratio(fam, phi) == parse_expression("z^2 / y^4")


# -- the ratio against S / S(phi*y, phi*z) ------------------------------------
#
# The engine reads the bi-2-form ratio from the cover coordinate a + b*w.
# The second path below is the quotient (phi*z / z) * J^2 * S / S(phi*y,
# phi*z), with S(phi*y, phi*z) summed term by term here.


def _pulled_relation(fam, phi):
    y_name, z_name = fam.base_vars
    y_image, z_image = phi.coords[y_name], phi.coords[z_name]
    pulled = RatFunc.zero()
    for e, c in fam.relation().term_items():
        rest = {n: k for n, k in zip(VARIABLES, e) if k and n not in fam.base_vars}
        term = RatFunc.from_poly(MPoly.monomial(rest, c))
        pulled = pulled + term * y_image ** e[VARIABLES.index(y_name)] * z_image ** e[
            VARIABLES.index(z_name)
        ]
    return pulled


def _quotient_ratio(fam, phi):
    y_name, z_name = fam.base_vars
    jac = jacobian_det2(phi.coords[y_name], phi.coords[z_name], y_name, z_name)
    z_ratio = phi.coords[z_name] / RatFunc.var(z_name)
    return z_ratio * jac * jac * RatFunc.from_poly(fam.relation()) / _pulled_relation(fam, phi)


def _builtin_pairs():
    flip = BirMap.from_strings(ENRIQUES_VARS, label="flip", w="-w", y="y", z="z")
    maps = [family_automorphism(k) for k in (1, 2, 3)] + [identity_map(), flip]
    sigma = family_automorphism(2)
    maps += [compose(sigma, sigma), compose(sigma, compose(sigma, sigma))]
    return [(family(k), phi) for k in (1, 2, 3) for phi in maps]


def _preserving(pairs):
    return [(fam, phi) for fam, phi in pairs if check_equation_invariance(fam, phi).holds]


@pytest.mark.parametrize(
    "pairs, count",
    [(_builtin_pairs, 13), (document_pairs, 36)],
    ids=["builtin", "docgen-seeds-1-3"],
)
def test_bitwoform_ratio_equals_the_quotient_by_the_pulled_relation(pairs, count):
    preserving = _preserving(pairs())
    assert len(preserving) == count
    for fam, phi in preserving:
        quotient = _quotient_ratio(fam, phi)
        ratio = biform(fam, phi)
        assert quotient.as_constant() == ratio
        assert quotient == RatFunc.const(ratio)


def test_a_ratio_whose_quotient_passes_the_degree_cap():
    # y -> z^6 / y^5, z -> z^7 / y^6 has an exponent matrix of determinant 1
    # and takes S = z * (y*z^3 + z^4) to b^2 * S with b^2 = z^30 / y^30.  For
    # a monomial map J = det * (phi*y * phi*z) / (y*z), so the ratio is
    # (z^6 / y^6) * (z^24 / y^24) / b^2 = 1.  The old quotient by the pulled
    # relation multiplies S by its denominator, past the cap; that record
    # read "product term of total degree 65 exceeds cap 64".
    fam = SurfaceFamily("t", "enriques_horikawa", parse_expression("y*z^3 + z^4").as_poly(), ())
    phi = BirMap.from_strings(
        ENRIQUES_VARS, label="m", w="w * z^15 / y^15", y="z^6 / y^5", z="z^7 / y^6"
    )
    assert check_equation_invariance(fam, phi).holds
    assert biform(fam, phi) == ONE
    with pytest.raises(DegreeCapError, match="total degree 65 exceeds cap 64"):
        _quotient_ratio(fam, phi)


def test_the_exponent_form_answers_a_map_with_large_exponents(monkeypatch):
    # the map above has |exponents| up to 15, yet its ratio is one term
    # read from the exponent form; no RatFunc body is called
    fam = SurfaceFamily("t", "enriques_horikawa", parse_expression("y*z^3 + z^4").as_poly(), ())
    phi = BirMap.from_strings(
        ENRIQUES_VARS, label="m", w="w * z^15 / y^15", y="z^6 / y^5", z="z^7 / y^6"
    )
    invariance = check_equation_invariance(fam, phi)

    def body(*args):
        raise AssertionError("the RatFunc body was called")

    monkeypatch.setattr(forms, "_bitwoform_by_ratfuncs", body)
    assert bitwoform_pullback_ratio(fam, phi, invariance) == ONE


# -- ratios of monomial maps against the RatFunc bodies -------------------------
#
# A monomial map with a = 0 has a one-term Jacobian, so both ratios are read
# from its exponent form.  _bitwoform_by_ratfuncs and _k3_twoform_by_ratfuncs
# are the RatFunc bodies they stand in for.  Where a body returns, the
# exponent form gives the same ratio; where it raises, the short path
# raises the same exception with the same text, or, where the body passes
# a cap on the way, returns the ratio the body returns under a higher cap.
# The ratios trust the invariance result they are handed, so any map of the
# family's kind can be compared.


def _ratio_outcome(compute, fam, phi):
    try:
        value = compute(fam, phi)
    except Exception as exc:
        return type(exc), str(exc)
    return value, str(value)


def _fast_ratio(fam, phi):
    ratio = bitwoform_pullback_ratio if fam.kind == ENRIQUES else k3_twoform_ratio
    return ratio(fam, phi, _HOLDS)


def _general_ratio(fam, phi):
    if fam.kind == ENRIQUES:
        return forms._bitwoform_by_ratfuncs(fam, phi)
    return forms._k3_twoform_by_ratfuncs(fam, phi)


def _maps(variables, **exprs):
    return BirMap.from_strings(variables, label="m", **exprs)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(builtin_and_document_families()).flatmap(lambda fam: st.tuples(
    st.just(fam),
    monomial_maps(fam.variables, st.one_of(BASE_BLOCKS, SINGULAR_BLOCKS)),
)))
# constant ratios of maps with exponents up to 15: (phi*z / z) * J^2 / b^2
# = 121 and 144, and J / b = 14 and 15
@example((family(1), _maps(ENRIQUES_VARS, w="w * y^13", y="y^11", z="y^2 * z")))
@example((family(1), _maps(ENRIQUES_VARS, w="w * y^14", y="y^12", z="y^2 * z")))
@example((k3_cover(family(1)), _maps(K3_VARS, W="W * Y^13", Y="Y^14", Z="Z")))
@example((k3_cover(family(1)), _maps(K3_VARS, W="W * Y^14", Y="Y^15", Z="Z")))
# a constant ratio, 961, whose b^2 = y^66 is over the cap: the general body
# raises DegreeCapError, and returns 961 under a cap of 96
@example((family(1), _maps(ENRIQUES_VARS, w="w * y^33", y="y^31", z="y^2 * z")))
# constant ratios with scalars: c_z * (det * c_y * c_z)^2 / c_w^2 = 8 and
# -8/9, and J / b = 2 * i / 3
@example((family(1), _maps(ENRIQUES_VARS, w="w", y="y", z="2*z")))
@example((family(1), _maps(ENRIQUES_VARS, w="3*w", y="i*y", z="2*z")))
@example((k3_cover(family(1)), _maps(K3_VARS, W="3*W", Y="i*Y", Z="2*Z")))
# non-constant ratios whose b^2 = y^66 is over the cap: both raise the
# general body's DegreeCapError
@example((family(1), _maps(ENRIQUES_VARS, w="w * y^33", y="y", z="z")))
@example((k3_cover(family(1)), _maps(K3_VARS, W="W * Y^33", Y="Y", Z="Z")))
# a non-constant ratio, a singular base, and a = b * w with a != 0
@example((family(1), _maps(ENRIQUES_VARS, w="w", y="z / y", z="z")))
@example((family(1), _maps(ENRIQUES_VARS, w="w", y="y * z", z="y * z")))
@example((family(1), _maps(ENRIQUES_VARS, w="y^2 * z", y="y", z="z")))
@example((k3_cover(family(1)), _maps(K3_VARS, W="Y^2", Y="Y", Z="Z")))
# a = 1 has the exponents b = 1 would have: the ratio is not constant
@example((family(1), _maps(ENRIQUES_VARS, w="1", y="y", z="z")))
@example((k3_cover(family(1)), _maps(K3_VARS, W="1", Y="Y", Z="Z")))
def test_monomial_ratios_match_the_ratfunc_bodies(case):
    fam, phi = case
    fast = _ratio_outcome(_fast_ratio, fam, phi)
    general = _ratio_outcome(_general_ratio, fam, phi)
    if general[0] in (DegreeCapError, SizeCapError) and isinstance(fast[0], Cyclo):
        # the exponent form forms no polynomial, so it answers where the
        # body passes a cap on the way
        with raised_degree_cap():
            general = _ratio_outcome(_general_ratio, fam, phi)
    assert fast == general
