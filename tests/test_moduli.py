"""Parameter actions and the effective moduli counts they leave behind."""

import pytest

from enricert.certificate import _Context, document_records
from enricert.cover import K3, SurfaceFamily, family, specialize
from enricert.errors import InvariantError, PreconditionError
from enricert.moduli import (
    ParameterAction,
    check_parameter_action,
    diagonal_base_scaling,
    homothety,
    moduli_number,
    weight_matrix,
)
from enricert.ingest import load_document, serialize_document
from enricert.poly import MPoly, RatFunc


def test_homothety_shape():
    action = homothety(family(1))
    assert action.weights == {p: 1 for p in "ABCDEF"}
    assert action.w_square_scale == -1
    assert action.needs_square_root()
    assert action.geometric == {}


def test_diagonal_base_scaling_shape():
    action = diagonal_base_scaling()
    assert action.weights == {"A": 6, "B": 4, "C": 4, "D": 2}
    assert action.w_square_scale == 1
    assert action.needs_square_root()
    alpha = RatFunc.var("alpha")
    assert action.geometric["y"] == alpha * RatFunc.var("y")


def test_action_rejects_parameter_in_geometric_part():
    with pytest.raises(InvariantError, match="parameter"):
        ParameterAction("bad", {"A": 1}, {"A": RatFunc.var("A")}, 0)


def test_homothety_preserves_each_family():
    for k in (1, 2, 3):
        fam = family(k)
        result = check_parameter_action(fam, homothety(fam))
        assert result.holds and bool(result)
        assert result.witness.is_zero()
        assert result.action.needs_square_root()


def test_diagonal_scaling_preserves_family3_only():
    result = check_parameter_action(family(3), diagonal_base_scaling())
    assert result.holds
    # family 2 has different degree bookkeeping under the same scaling
    action = ParameterAction(
        "diagonal_on_2",
        {"A": 6, "B": 4, "D": 2},
        diagonal_base_scaling().geometric,
        w_square_scale=1,
    )
    result2 = check_parameter_action(family(2), action)
    assert not result2.holds
    assert not result2.witness.is_zero()


def test_failed_action_witness_is_the_defect():
    # give every parameter weight zero but keep the geometric scaling: the
    # mismatch is the whole rescaled relation minus the original
    action = ParameterAction(
        "frozen", {p: 0 for p in family(3).parameters},
        diagonal_base_scaling().geometric, w_square_scale=0,
    )
    result = check_parameter_action(family(3), action)
    assert not result.holds
    assert "alpha" in (result.witness.variables())
    # an even rescaling of w^2 needs no square root of alpha
    assert not result.action.needs_square_root()


def test_action_requires_full_weight_cover():
    with pytest.raises(PreconditionError, match="no weight"):
        check_parameter_action(family(1), homothety(family(2)))


def _cover_family():
    """W^2 = A*Y^4 + A*Z^4, a k3_cover family with one parameter."""
    branch = MPoly.var("A") * MPoly.sum_monomials([({"Y": 4}, 1), ({"Z": 4}, 1)])
    return SurfaceFamily("c", K3, branch, ("A",))


def test_action_on_a_cover_family_is_certified():
    # A -> alpha*A rescales g by alpha, so W^2 rescales by alpha^(-1)
    fam = _cover_family()
    result = check_parameter_action(fam, ParameterAction("h", {"A": 1}, {}, -1))
    assert result.holds and result.witness.is_zero()
    wrong = check_parameter_action(fam, ParameterAction("h", {"A": 1}, {}, 1))
    assert not wrong.holds
    assert set(wrong.witness.variables()) == {"A", "alpha", "Y", "Z"}


def test_cover_action_gets_an_action_record_and_no_moduli_record():
    action = ParameterAction("h", {"A": 1}, {}, -1)
    doc = serialize_document([_cover_family()], [], {"c": (action,)})
    ingested = load_document(doc)
    records = document_records(
        ingested.families, ingested.maps, ingested.actions, _Context()
    )
    by_id = {r.id: r for r in records}
    assert by_id["custom-action-c-h"].result == "pass"
    assert not any(r.id.startswith("custom-moduli-") for r in records)


def test_weight_matrix_layout():
    fam = family(3)
    rows = weight_matrix(fam, [homothety(fam), diagonal_base_scaling()])
    assert rows == ((1, 1, 1, 1), (6, 4, 4, 2))


def count(fam, actions):
    """moduli_number over the checks of the given actions."""
    return moduli_number(fam, [check_parameter_action(fam, a) for a in actions])


def test_moduli_numbers():
    assert count(family(1), [homothety(family(1))]) == 5
    assert count(family(2), [homothety(family(2))]) == 2
    fam3 = family(3)
    assert count(fam3, [homothety(fam3), diagonal_base_scaling()]) == 2


def test_moduli_number_without_actions_counts_parameters():
    assert count(family(1), []) == 6


def test_dependent_actions_do_not_overcount():
    fam = family(2)
    action = homothety(fam)
    doubled = ParameterAction(
        "homothety_squared",
        {p: 2 for p in fam.parameters},
        {},
        w_square_scale=-2,
    )
    result = check_parameter_action(fam, doubled)
    assert result.holds and not result.action.needs_square_root()
    assert count(fam, [action, doubled]) == 2


def test_moduli_number_rejects_non_preserving_action():
    with pytest.raises(PreconditionError, match="'diagonal_on_2' does not preserve family2"):
        count(family(2), [diagonal_base_scaling_on_family2()])


def diagonal_base_scaling_on_family2():
    return ParameterAction(
        "diagonal_on_2",
        {"A": 6, "B": 4, "D": 2},
        diagonal_base_scaling().geometric,
        w_square_scale=1,
    )


def test_specialized_family_keeps_the_homothety():
    fam = specialize(family(1), {"E": 0, "F": 0})
    assert count(fam, [homothety(fam)]) == 3
