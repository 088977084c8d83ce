"""Pullback ratios of the canonical forms and the derived indices."""

import pytest

from enricert.cover import SurfaceFamily, family, k3_cover
from enricert.errors import (
    NonConstantRatioError,
    NotRootOfUnityError,
    PreconditionError,
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
    K3_VARS,
    check_equation_invariance,
    compose,
    deck_flip,
    family_automorphism,
    k3_lift,
)
from enricert.poly import MPoly

I = SQRT_M1


def biform(fam, phi):
    return bitwoform_pullback_ratio(fam, phi, check_equation_invariance(fam, phi))


def twoform(cov, phi):
    return k3_twoform_ratio(cov, phi, check_equation_invariance(cov, phi))


def test_builtin_ratios_and_indices():
    r1 = biform(family(1), family_automorphism(1))
    assert r1 == -ONE and index_of(r1) == 2
    r2 = biform(family(2), family_automorphism(2))
    assert r2 == -I and index_of(r2) == 4
    r3 = biform(family(3), family_automorphism(3))
    assert r3 == -ONE and index_of(r3) == 2


def test_identity_is_semi_symplectic():
    r = biform(family(1), BirMap.identity())
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
