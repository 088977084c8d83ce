"""Lattice arithmetic, Lefschetz identities, and dimension counts."""

import itertools
import random

import pytest

from enricert.errors import InvariantError, PreconditionError
from enricert.field import Cyclo, ONE, SQRT_M1
from enricert.lattices import (
    ADE_RANK,
    FixedCurveData,
    GramLattice,
    K3_B2,
    euler_phi,
    holomorphic_lefschetz_case_a,
    holomorphic_lefschetz_case_b,
    hyperbolic_plane,
    isometries_with_trace,
    moduli_dimension,
    picard_bound_for_82,
    topological_lefschetz_count,
)


# -- Gram lattices ------------------------------------------------------------


def test_gram_validation():
    with pytest.raises(InvariantError, match="square"):
        GramLattice(((0, 1),))
    with pytest.raises(InvariantError, match="symmetric"):
        GramLattice(((0, 1), (2, 0)))


def test_hyperbolic_plane_invariants():
    assert hyperbolic_plane(1).invariants() == (2, -1)
    assert hyperbolic_plane(2).invariants() == (2, -4)


def test_determinants():
    assert GramLattice(()).determinant() == 1
    assert GramLattice(((5,),)).determinant() == 5
    assert GramLattice(((2, 1), (1, 2))).determinant() == 3
    assert GramLattice(((1, 2), (2, 4))).determinant() == 0
    assert GramLattice(((2, -1, 0), (-1, 2, -1), (0, -1, 2))).determinant() == 4


def test_determinant_matches_cofactor_expansion_on_random_matrices():
    rng = random.Random(20260822)
    for _ in range(120):
        a, b, c = rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)
        d, e, f = rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)
        rows = ((a, b, c), (b, d, e), (c, e, f))
        want = a * (d * f - e * e) - b * (b * f - e * c) + c * (b * e - d * c)
        assert GramLattice(rows).determinant() == want


# -- isometry enumeration -----------------------------------------------------


def test_trace2_isometries_of_scaled_hyperbolic_plane():
    found = isometries_with_trace(hyperbolic_plane(2), 2, bound=1)
    assert found == [((1, 0), (0, 1))]


def test_trace0_isometries_of_scaled_hyperbolic_plane():
    found = isometries_with_trace(hyperbolic_plane(2), 0, bound=1)
    assert sorted(found) == [((0, -1), (-1, 0)), ((0, 1), (1, 0))]


def test_isometries_preserve_gram_matrix():
    lattice = GramLattice(((2, 0), (0, -2)))
    for m in isometries_with_trace(lattice, 0, bound=1):
        g = lattice.rows
        for i in range(2):
            for j in range(2):
                s = sum(
                    m[k][i] * g[k][l] * m[l][j]
                    for k in range(2)
                    for l in range(2)
                )
                assert s == g[i][j]


def _brute_force_isometries(lattice, bound):
    """Every isometry with |entries| <= bound, over all n^2 entries in order."""
    n, g = lattice.rank, lattice.rows
    found = []
    for flat in itertools.product(range(-bound, bound + 1), repeat=n * n):
        m = tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))
        if all(
            sum(m[k][i] * g[k][l] * m[l][j] for k in range(n) for l in range(n))
            == g[i][j]
            for i in range(n)
            for j in range(n)
        ):
            found.append(m)
    return found


@pytest.mark.parametrize(
    "rows, bounds",
    [
        ((), (-1, 0, 1)),
        (((2,),), (-1, 0, 1, 3)),
        (((-2,),), (0, 2)),
        (((0, 1), (1, 0)), (0, 1, 2)),
        (((0, 2), (2, 0)), (1, 2)),
        (((2, 1), (1, 2)), (1, 2)),
        (((2, 0), (0, -2)), (2,)),
        (((0, 1, 0), (1, 0, 0), (0, 0, -2)), (1,)),
        (((2, -1, 0), (-1, 2, -1), (0, -1, 2)), (1,)),
    ],
    ids=["rank0", "A1", "A1(-1)", "U", "U(2)", "A2", "A1+A1(-1)", "U+A1(-1)", "A3"],
)
def test_isometry_search_equals_brute_force_in_order(rows, bounds):
    # the search fixes the last diagonal entry from the trace; brute force
    # runs over every entry and filters by trace, and the lists agree in order
    lattice = GramLattice(rows)
    for bound in bounds:
        every = _brute_force_isometries(lattice, bound)
        for trace in range(-4, 5):
            want = [m for m in every if sum(m[i][i] for i in range(len(m))) == trace]
            assert isometries_with_trace(lattice, trace, bound) == want


def _isometries_entry_by_entry(lattice, trace, bound):
    """The isometry search over all n^2 entries in row-major order, the last
    diagonal entry fixed by the trace: the reference for the column-by-column
    search."""
    n = lattice.rank
    if n == 0:
        return [()] if trace == 0 else []
    g = lattice.rows
    values = range(-bound, bound + 1)
    found = []
    for head in itertools.product(values, repeat=n * n - 1):
        last = trace - sum(head[i * (n + 1)] for i in range(n - 1))
        if last not in values:
            continue
        flat = head + (last,)
        m = tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))
        if all(
            sum(m[k][i] * g[k][l] * m[l][j] for k in range(n) for l in range(n)) == g[i][j]
            for i in range(n)
            for j in range(i, n)
        ):
            found.append(m)
    return found


_REFERENCE_LATTICES = [
    (),
    ((2,),),
    ((-2,),),
    ((0, 1), (1, 0)),
    ((0, 2), (2, 0)),
    ((2, 1), (1, 2)),
    ((2, 0), (0, -2)),
    ((0, 1, 0), (1, 0, 0), (0, 0, -2)),
    ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    ((2, 0, 0), (0, 2, 0), (0, 0, 2)),
]


@pytest.mark.parametrize("rows", _REFERENCE_LATTICES, ids=[
    "rank0", "A1", "A1(-1)", "U", "U(2)", "A2", "A1+A1(-1)", "U+A1(-1)", "A3", "3A1",
])
def test_isometry_search_equals_the_entry_by_entry_search(rows):
    # bounds 1 and 2 up to rank 2, bound 1 at rank 3, and every trace the
    # entries allow
    lattice = GramLattice(rows)
    n = lattice.rank
    for bound in (1,) if n == 3 else (1, 2):
        for trace in range(-n * bound - 1, n * bound + 2):
            assert isometries_with_trace(lattice, trace, bound) == (
                _isometries_entry_by_entry(lattice, trace, bound)
            )


def test_isometry_search_of_rank_zero():
    # the empty matrix is the one isometry, of trace 0, whatever the bound
    for bound in (-1, 0, 2):
        assert isometries_with_trace(GramLattice(()), 0, bound) == [()]
        assert isometries_with_trace(GramLattice(()), 1, bound) == []


def test_isometry_search_rejects_large_rank():
    rows = tuple(tuple(2 if i == j else 0 for j in range(4)) for i in range(4))
    with pytest.raises(PreconditionError):
        isometries_with_trace(GramLattice(rows), 0, bound=1)


# -- fixed curves and Lefschetz identities ------------------------------------


def test_fixed_curve_adjunction_enforced():
    curve = FixedCurveData(genus=1, self_intersection=0)
    assert curve.genus == 1
    with pytest.raises(InvariantError, match="self-intersection"):
        FixedCurveData(genus=1, self_intersection=2)


def test_case_a_rules_out_an_elliptic_fixed_curve():
    curve = FixedCurveData(genus=1, self_intersection=0)
    for sign in (1, -1):
        lhs, rhs, equal = holomorphic_lefschetz_case_a(sign, curve)
        assert not equal
        assert lhs == ONE - Cyclo.coerce(sign) * SQRT_M1
        assert rhs.is_zero()


def test_case_a_exact_values_for_genus4_curve():
    curve = FixedCurveData(genus=4, self_intersection=6)
    lhs, rhs, equal = holomorphic_lefschetz_case_a(1, curve)
    assert lhs == ONE - SQRT_M1
    assert not equal


def test_case_b_yields_four_points_for_both_signs():
    assert holomorphic_lefschetz_case_b(1) == 4
    assert holomorphic_lefschetz_case_b(-1) == 4
    with pytest.raises(ValueError):
        holomorphic_lefschetz_case_b(0)


def test_topological_count():
    assert topological_lefschetz_count(2) == 4
    assert topological_lefschetz_count(0) == 2


# -- arithmetic helpers -------------------------------------------------------


def test_euler_phi_values():
    values = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 8: 4, 12: 4}
    for n, phi in values.items():
        assert euler_phi(n) == phi
    with pytest.raises(ValueError):
        euler_phi(0)


def test_euler_phi_multiplicative_on_coprime_pairs():
    rng = random.Random(20260822)
    checked = 0
    while checked < 120:
        a, b = rng.randint(1, 40), rng.randint(1, 40)
        x, y = a, b
        while y:
            x, y = y, x % y
        if x != 1:
            continue
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)
        checked += 1


def test_moduli_dimension_values():
    assert moduli_dimension(12, 4) == 5
    assert moduli_dimension(12, 8) == 2
    assert moduli_dimension(6, 4) == 2


def test_moduli_dimension_requires_divisibility():
    with pytest.raises(PreconditionError, match="divide"):
        moduli_dimension(7, 8)


def test_picard_bound():
    assert ADE_RANK["A3"] == 3 and ADE_RANK["A1"] == 1
    assert picard_bound_for_82() == 16
    assert K3_B2 - picard_bound_for_82() == 6
