"""The finite classification of (order, index) pairs and its pruning trace."""

import pytest

from enricert.classify import (
    INDICES,
    MAX_SEMI_SYMPLECTIC_ORDER,
    PruneRecord,
    RULE_STATEMENTS,
    admissible_pairs,
    allowed_orders,
)


def test_survivors():
    assert admissible_pairs().pairs == [(4, 2), (8, 2), (8, 4)]


def test_candidate_grid_is_covered_exactly_once():
    outcome = admissible_pairs()
    grid = {(i * m, i) for i in INDICES for m in range(1, MAX_SEMI_SYMPLECTIC_ORDER + 1)}
    pruned = {r.pair for r in outcome.trace}
    assert pruned | set(outcome.pairs) == grid
    assert pruned & set(outcome.pairs) == set()
    assert len(outcome.trace) == len(pruned)


def test_pruning_trace_rules():
    expected = {
        (2, 2): "order_two",
        (6, 2): "half_odd",
        (10, 2): "half_odd",
        (12, 2): "no_order6_square",
        (4, 4): "square_inadmissible",
        (12, 4): "square_inadmissible",
        (20, 4): "square_inadmissible",
        (24, 4): "square_inadmissible",
        (16, 4): "no_order8_square_index4",
        (8, 8): "square_inadmissible",
        (24, 8): "square_inadmissible",
        (32, 8): "square_inadmissible",
        (40, 8): "square_inadmissible",
        (48, 8): "square_inadmissible",
        (16, 8): "no_index8",
    }
    assert {r.pair: r.rule for r in admissible_pairs().trace} == expected


def test_every_prune_record_carries_its_statement():
    for record in admissible_pairs().trace:
        assert RULE_STATEMENTS[record.rule]  # non-empty prose
    assert set(RULE_STATEMENTS) == {
        "bounds", "order_two", "half_odd", "no_order6_square",
        "square_inadmissible", "no_order8_square_index4", "no_index8",
    }


def test_surviving_pairs_are_internally_consistent():
    for n, index in admissible_pairs().pairs:
        assert n % index == 0
        assert index in INDICES
        assert n // index <= MAX_SEMI_SYMPLECTIC_ORDER
        # index 2^k forces order divisible by 2^k
        assert n % 2 == 0


def test_halving_cascade():
    # the square of a surviving index-4 pair must be a surviving index-2 pair
    outcome = admissible_pairs()
    survivors = set(outcome.pairs)
    for n, index in survivors:
        if index == 4:
            assert (n // 2, 2) in survivors


def test_allowed_orders():
    assert allowed_orders() == [1, 2, 3, 4, 5, 6, 8]


def test_prune_record_requires_known_rule():
    with pytest.raises(KeyError):
        PruneRecord((4, 2), "unheard_of_rule")
