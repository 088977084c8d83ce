"""Integer lattices, Lefschetz-type identities and dimension counts.

Everything here is small and exact: Gram matrices of rank at most a few,
brute-force isometry enumeration within an entry bound, the two holomorphic
Lefschetz fixed-point identities specialised to an order-4 action whose
square is a non-symplectic involution, and the arithmetic that turns lattice
ranks into moduli dimensions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import List, Tuple

from .errors import InvariantError, PreconditionError
from .field import Cyclo, ONE, SQRT_M1

IntMatrix = Tuple[Tuple[int, ...], ...]


class GramLattice:
    """An even-rank-agnostic integer lattice given by its Gram matrix."""

    def __init__(self, rows: Tuple[Tuple[int, ...], ...]):
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise InvariantError("Gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise InvariantError("Gram matrix must be symmetric")
        self.rows = rows

    @property
    def rank(self) -> int:
        return len(self.rows)

    def determinant(self) -> int:
        """Exact determinant; the empty lattice has determinant 1."""
        rank, pivot_product = row_reduce(self.rows)
        if rank < self.rank:
            return 0
        assert pivot_product.denominator == 1
        return int(pivot_product)

    def invariants(self) -> Tuple[int, int]:
        return self.rank, self.determinant()

    def __repr__(self) -> str:
        return f"GramLattice({self.rows})"


def row_reduce(rows: IntMatrix) -> Tuple[int, Fraction]:
    """Exact Gaussian elimination over Q: the rank of the matrix, and the
    product of its pivots signed by the row swaps, which for a square
    matrix of full rank is its determinant."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank, pivot_product = 0, Fraction(1)
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            pivot_product = -pivot_product
        pivot_product *= m[rank][col]
        for r in range(rank + 1, len(m)):
            if m[r][col] != 0:
                factor = m[r][col] / m[rank][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank, pivot_product


def hyperbolic_plane(scale: int = 1) -> GramLattice:
    """The rank-2 lattice ((0, scale), (scale, 0))."""
    return GramLattice(((0, scale), (scale, 0)))


def isometries_with_trace(
    lattice: GramLattice, trace: int, bound: int
) -> List[IntMatrix]:
    """All integer matrices M with |entries| <= bound, M^T G M = G and the
    given trace, sorted, which is the order of enumerating all n^2 entries.

    M^T G M = G says that the columns v_i of M satisfy v_i^T G v_j = G_ij.
    So the search lists, for each j, the vectors v with v^T G v = G_jj,
    extends a choice of the first columns one column at a time by the
    vectors that pair with each chosen v_i to G_ij, and filters the full
    matrices by trace.  Feasible only for tiny ranks; rank above 3 is
    rejected outright.
    """
    n = lattice.rank
    if n > 3:
        raise PreconditionError("brute-force isometry search limited to rank <= 3")
    if n == 0:
        # the empty matrix, an isometry of trace 0
        return [()] if trace == 0 else []
    g = lattice.rows
    # G v for each vector v, so that u^T G v is a dot product
    gram = {
        v: tuple(_dot(row, v) for row in g)
        for v in itertools.product(range(-bound, bound + 1), repeat=n)
    }
    columns = [[v for v, gv in gram.items() if _dot(v, gv) == g[j][j]] for j in range(n)]
    chosen = [()]
    for j in range(n):
        chosen = [
            cols + (v,)
            for cols in chosen
            for v in columns[j]
            if all(_dot(u, gram[v]) == g[i][j] for i, u in enumerate(cols))
        ]
    return sorted(
        tuple(zip(*cols)) for cols in chosen if sum(cols[i][i] for i in range(n)) == trace
    )


def _dot(u: Tuple[int, ...], v: Tuple[int, ...]) -> int:
    return sum(map(mul, u, v))


class FixedCurveData:
    """A fixed curve on a K3 surface: genus and self-intersection.

    Smooth curves on a K3 satisfy C^2 = 2g - 2, which is enforced.
    """

    def __init__(self, genus: int, self_intersection: int):
        if self_intersection != 2 * genus - 2:
            raise InvariantError(
                f"a genus-{genus} curve on a K3 has self-intersection "
                f"{2 * genus - 2}, not {self_intersection}"
            )
        self.genus = genus
        self.self_intersection = self_intersection

    def __repr__(self) -> str:
        return f"FixedCurveData(genus={self.genus}, C2={self.self_intersection})"


def _lambda(sign: int) -> Cyclo:
    if sign not in (1, -1):
        raise ValueError("sign must be 1 or -1")
    return SQRT_M1 if sign == 1 else -SQRT_M1


def holomorphic_lefschetz_case_a(
    sign: int, curve: FixedCurveData
) -> Tuple[Cyclo, Cyclo, bool]:
    """Fixed-curve branch of the holomorphic Lefschetz identity.

    For an order-4 automorphism acting on the holomorphic 2-form by
    lambda = sign * sqrt(-1), a pointwise-fixed curve of genus g would force

        1 - lambda = (1 - g) / (1 - lambda) - lambda * C^2 / (1 - lambda)^2.

    Returns (lhs, rhs, equal); inequality rules the configuration out.
    """
    lam = _lambda(sign)
    one = ONE
    lhs = one - lam
    denom = one - lam
    rhs = (one - Cyclo.coerce(curve.genus)) / denom - (
        lam * Cyclo.coerce(curve.self_intersection)
    ) / (denom * denom)
    return lhs, rhs, lhs == rhs


def holomorphic_lefschetz_case_b(sign: int) -> int:
    """Isolated-fixed-point branch of the identity: solve for the point count.

    With every isolated fixed point contributing 1 / det(1 - d(tau)) =
    1 / ((1 + 1)(1 - sign*i*...)), the identity reads

        1 - lambda = N / ((1 + 1) * (1 + lambda)),

    and N must come out a rational integer; both signs give N = 4.
    """
    lam = _lambda(sign)
    n_val = (ONE - lam) * Cyclo.coerce(2) * (ONE + lam)
    if not n_val.is_integer():
        raise InvariantError(f"fixed point count {n_val} is not an integer")
    return int(n_val.rational_value())


def topological_lefschetz_count(trace_h2: int) -> int:
    """Euler number of the fixed locus on the quadric: 2 + trace on H^2."""
    return 2 + trace_h2


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs a positive integer")
    return sum(math.gcd(k, n) == 1 for k in range(1, n + 1))


def moduli_dimension(rank_t: int, n: int) -> int:
    """Dimension of a period domain slice: rank_T / phi(n) - 1.

    rank_t is the rank of the transcendental-type lattice the eigenvalue
    decomposition applies to, and n the order of the eigenvalue; phi(n) must
    divide rank_t.
    """
    phi = euler_phi(n)
    if rank_t % phi:
        raise PreconditionError(
            f"euler_phi({n}) = {phi} does not divide rank {rank_t}"
        )
    return rank_t // phi - 1


#: Ranks of the ADE root lattices the built-in Picard bound uses.
ADE_RANK = {"A1": 1, "A3": 3}

#: Second Betti number of a K3 surface.
K3_B2 = 22


def picard_bound_for_82() -> int:
    """Lower bound for the Picard rank forced on the K3 cover of a generic
    member of the order-8 index-2 family.

    Four A3 configurations, two A1 configurations and the ample class give
    4*3 + 2*1 + 1 = 15; the relevant lattice has even rank, so round up to
    16.  The transcendental rank is then at most K3_B2 - 16 = 6.
    """
    total = 4 * ADE_RANK["A3"] + 2 * ADE_RANK["A1"] + 1
    return total + (total % 2)
