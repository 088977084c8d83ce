"""Branch families, K3 covers and freeness."""

from pathlib import Path

import pytest

import enricert
from enricert.certificate import _corner_witness
from enricert.cover import (
    SurfaceFamily,
    epsilon_fixed_point_free,
    family,
    horikawa_support,
    k3_cover,
    specialization_one_param,
    specialization_to_family2,
    specialize,
)
from enricert.errors import InvariantError, PreconditionError
from enricert.field import SQRT_M1
from enricert.maps import check_equation_invariance, k3_lift
from enricert.poly import MPoly, RatFunc

from _helpers import bis_condition, document_families


def mono(exps, scalar=1):
    return MPoly.sum_monomials([(exps, scalar)])


def var(name):
    return MPoly.var(name)


# -- admissible support and the built-in families ----------------------------


def test_horikawa_support_contents():
    support = horikawa_support()
    assert (4, 0) in support and (0, 2) in support and (4, 2) in support
    assert (0, 1) not in support          # i + 2j = 2 too small
    assert (3, 0) not in support          # i + 2j = 3 too small
    assert (4, 3) not in support          # i + 2j = 10 too large
    assert all(4 <= i + 2 * j <= 8 for i, j in support)
    assert len(support) == 13


def test_builtin_family_shapes():
    f1, f2, f3 = family(1), family(2), family(3)
    assert (f1.kind, f2.kind, f3.kind) == ("enriques_horikawa",) * 3
    assert f1.parameters == ("A", "B", "C", "D", "E", "F")
    assert f2.parameters == ("A", "B", "D")
    assert f3.parameters == ("A", "B", "C", "D")
    assert len(f1.geometric_support()) == 12
    assert len(f2.geometric_support()) == 12
    assert len(f3.geometric_support()) == 6
    for fam in (f1, f2, f3):
        assert set(fam.geometric_support()) <= horikawa_support()
        assert fam.variables[0] == "w"
        assert fam.base_vars == ("y", "z")


def test_family_coefficients_spot_checks():
    f1 = family(1)
    assert f1.monomial_coefficient(4, 2) == var("A")
    assert f1.monomial_coefficient(0, 2) == -var("A")
    assert f1.monomial_coefficient(2, 1) == var("F")
    f3 = family(3)
    assert f3.monomial_coefficient(4, 2) == var("A")
    assert f3.monomial_coefficient(3, 1) == var("C")
    assert f3.monomial_coefficient(1, 3) == var("C").scale(-SQRT_M1)
    assert f3.monomial_coefficient(0, 2) == var("D")
    assert f3.monomial_coefficient(2, 2) == MPoly.zero()


def test_family_relation_includes_extra_ruling_factor():
    f1 = family(1)
    assert f1.relation() == var("z") * f1.branch
    cov = k3_cover(f1)
    assert cov.relation() == cov.branch


def test_family_index_errors():
    with pytest.raises(ValueError, match=r"^no built-in family 0; choose 1, 2 or 3$"):
        family(0)
    with pytest.raises(ValueError, match=r"^no built-in family 4; choose 1, 2 or 3$"):
        family(4)


def test_no_source_file_spells_a_choice_of_builtin_tags():
    # builtin_entry builds the unknown-tag text from its table's keys, so a
    # new built-in family needs no second edit of a message
    package = Path(enricert.__file__).parent
    spelled = [
        f"{path.name}: {text}"
        for path in sorted(package.glob("*.py"))
        for text in ("choose 1, 2 or 3", "choose 1 or 2")
        if text in path.read_text(encoding="utf-8")
    ]
    assert spelled == []


# -- construction validation -------------------------------------------------


def test_rejects_zero_branch():
    with pytest.raises(InvariantError, match="zero"):
        SurfaceFamily("t", "enriques_horikawa", MPoly.zero(), ())


def test_rejects_unknown_kind():
    with pytest.raises(InvariantError, match="kind"):
        SurfaceFamily("t", "abelian", mono({"y": 4}), ())


def test_rejects_alpha_parameter():
    with pytest.raises(InvariantError, match="alpha"):
        SurfaceFamily("t", "enriques_horikawa", mono({"y": 4}), ("alpha",))


def test_rejects_geometric_name_as_parameter():
    with pytest.raises(InvariantError, match="not a parameter"):
        SurfaceFamily("t", "enriques_horikawa", mono({"y": 4}), ("y",))


def test_rejects_repeated_parameter():
    # a repeated name would count twice towards the moduli number
    with pytest.raises(InvariantError, match="parameter 'A' of t is repeated"):
        SurfaceFamily("t", "enriques_horikawa", mono({"y": 4, "A": 1}), ("A", "B", "A"))


def test_rejects_stray_variables():
    branch = mono({"y": 4}) + mono({"Y": 2, "Z": 2})
    with pytest.raises(InvariantError, match="outside"):
        SurfaceFamily("t", "enriques_horikawa", branch, ())


def test_rejects_quadratic_parameter_dependence():
    branch = mono({"y": 4, "A": 1, "B": 1})
    with pytest.raises(InvariantError, match="affine-linear"):
        SurfaceFamily("t", "enriques_horikawa", branch, ("A", "B"))


def test_rejects_support_violation():
    with pytest.raises(InvariantError, match="support"):
        SurfaceFamily("t", "enriques_horikawa", mono({"y": 1, "z": 1}), ())


def test_rejects_cover_bidegree_violation():
    with pytest.raises(InvariantError, match="bidegree"):
        SurfaceFamily("t", "k3_cover", mono({"Y": 6}), ())


def test_rejects_cover_parity_violation():
    with pytest.raises(InvariantError, match="invariant under"):
        SurfaceFamily("t", "k3_cover", mono({"Y": 2, "Z": 1}), ())


def test_declared_but_unused_parameter_is_allowed():
    fam = SurfaceFamily("t", "enriques_horikawa", mono({"y": 4, "A": 1}), ("A", "B"))
    assert fam.parameters == ("A", "B")


# -- specialization ----------------------------------------------------------


def test_specialization_reaches_family2():
    got = specialize(family(1), specialization_to_family2())
    assert got == family(2)
    assert got.parameters == ("A", "B", "D")


def test_one_parameter_specialization():
    got = specialize(family(1), specialization_one_param())
    assert got.parameters == ("C",)
    assert set(got.geometric_support()) == {
        (4, 2), (0, 2), (4, 1), (0, 3), (4, 0), (0, 4), (2, 1), (2, 3),
    }
    assert got.monomial_coefficient(4, 1) == -var("C") - MPoly.const(1)
    assert got.monomial_coefficient(2, 3) == var("C") - MPoly.const(1)


def test_specialize_rejects_unknown_parameter():
    with pytest.raises(InvariantError, match="not a parameter of"):
        specialize(family(2), {"C": 1})


def test_specialize_rejects_rational_value():
    one_over_a = RatFunc.const(1) / RatFunc.var("A")
    with pytest.raises(InvariantError, match="not polynomial"):
        specialize(family(1), {"B": one_over_a})


def test_specialize_rejects_geometric_value():
    with pytest.raises(InvariantError, match="geometric"):
        specialize(family(1), {"A": var("y")})


def test_specialize_rejects_quadratic_value():
    with pytest.raises(InvariantError, match="affine-linear"):
        specialize(family(1), {"A": var("A") * var("B")})


def test_specialize_revalidates_result():
    # killing every parameter collapses the branch to zero
    with pytest.raises(InvariantError, match="zero"):
        specialize(family(3), {"A": 0, "B": 0, "C": 0, "D": 0})


# -- K3 covers ---------------------------------------------------------------


def test_cover_shape():
    cov = k3_cover(family(1))
    assert cov.kind == "k3_cover"
    assert cov.name == "family1_cover"
    assert cov.parameters == family(1).parameters
    assert cov.base_vars == ("Y", "Z")
    assert cov.variables[0] == "W"
    for i, j in cov.geometric_support():
        assert i <= 4 and j <= 4 and (i + j) % 2 == 0


def test_cover_monomial_images():
    # y^i z^j maps to Y^i Z^(i + 2j - 4)
    cov = k3_cover(family(1))
    assert cov.monomial_coefficient(4, 4) == var("A")
    assert cov.monomial_coefficient(0, 0) == -var("A")
    assert cov.monomial_coefficient(4, 0) == var("C")
    assert cov.monomial_coefficient(0, 4) == -var("C")


def test_cover_substitution_identity():
    # g(Y, Z) * Z^4 must equal f(Y*Z, Z^2) on the nose
    fam = family(2)
    cov = k3_cover(fam)
    pulled = fam.branch.substitute(
        {"y": var("Y") * var("Z"), "z": var("Z") * var("Z")}
    ).as_poly()
    assert cov.branch * MPoly.monomial({"Z": 4}) == pulled


def test_cover_of_cover_rejected():
    with pytest.raises(PreconditionError):
        k3_cover(k3_cover(family(1)))


# -- bis conditions and freeness ---------------------------------------------


# Condition k is the invariance of W^2 = g under the k-th given lift, which
# is how the certificate checks it; bis_condition reads the condition off
# the terms of g instead.


def test_bis_conditions_hold_on_matching_covers():
    for k in (1, 2):
        cover = k3_cover(family(k))
        res = check_equation_invariance(cover, k3_lift(k))
        assert res.holds and res.witness_even.is_zero() and res.witness_odd.is_zero()
        assert bis_condition(cover, k)


def test_bis_condition_failure_reports_witness():
    # family 3's cover satisfies neither symmetry
    cover = k3_cover(family(3))
    res = check_equation_invariance(cover, k3_lift(1))
    assert not res.holds and not res.witness_even.is_zero()
    assert not bis_condition(cover, 1)


def test_bis_condition_argument_validation():
    # a lift acts on covers only, and only two lifts are given
    with pytest.raises(PreconditionError):
        check_equation_invariance(family(1), k3_lift(1))
    with pytest.raises(ValueError):
        k3_lift(3)


def test_lift_invariance_is_the_bis_condition_on_every_cover():
    covers = [k3_cover(fam) for fam in [family(k) for k in (1, 2, 3)] + document_families()]
    assert len(covers) == 30
    verdicts = []
    for cover in covers:
        for k in (1, 2):
            verdicts.append(bis_condition(cover, k))
            assert check_equation_invariance(cover, k3_lift(k)).holds == verdicts[-1]
    # both outcomes occur
    assert True in verdicts and False in verdicts


def test_epsilon_freeness_corner_values():
    res1 = epsilon_fixed_point_free(k3_cover(family(1)))
    assert res1.free and bool(res1)
    assert res1.corners["(0,0)"] == -var("A")
    assert res1.corners["(inf,0)"] == var("C")
    assert res1.corners["(0,inf)"] == -var("C")
    assert res1.corners["(inf,inf)"] == var("A")

    res2 = epsilon_fixed_point_free(k3_cover(family(2)))
    assert res2.free
    assert res2.corners["(inf,0)"] == var("A").scale(-SQRT_M1)
    assert res2.corners["(0,inf)"] == var("A").scale(SQRT_M1)

    res3 = epsilon_fixed_point_free(k3_cover(family(3)))
    assert res3.free
    assert res3.corners["(0,0)"] == var("D")
    assert res3.corners["(inf,0)"] == var("B")
    assert res3.corners["(0,inf)"] == var("B")
    assert res3.corners["(inf,inf)"] == var("A")


def test_epsilon_freeness_fails_on_vanishing_corner():
    res = epsilon_fixed_point_free(k3_cover(specialize(family(3), {"D": 0})))
    assert not res.free and not bool(res)
    assert res.corners["(0,0)"].is_zero()
    # exactly one corner vanishes, and the witness names only that one
    assert sum(c.is_zero() for c in res.corners.values()) == 1
    assert _corner_witness(res) == "vanishing corner coefficient at (0,0)"


def test_epsilon_freeness_rejects_enriques_input():
    with pytest.raises(PreconditionError, match="expects a k3_cover family"):
        epsilon_fixed_point_free(family(1))

