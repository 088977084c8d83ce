"""The finite classification of (order, index) pairs.

An automorphism of odd order or order 2 preserves the bi-2-form, so a
non-trivial index forces even order; the index is a power of 2 dividing the
order, and the semi-symplectic part has order at most 6.  Within the finite
candidate grid these constraints leave, three specific exclusion arguments
prune everything except (4, 2), (8, 2) and (8, 4).  Each pruning step is
recorded with the statement of the fact it encodes, so the certificate shows
why every rejected candidate dies.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Set, Tuple

Pair = Tuple[int, int]

#: Indices a non-semi-symplectic automorphism can have: proper powers of 2
#: up to the maximal root-of-unity order available on the bi-2-form line.
INDICES = (2, 4, 8)

#: Largest order of a purely semi-symplectic automorphism.
MAX_SEMI_SYMPLECTIC_ORDER = 6

RULE_STATEMENTS = {
    "bounds": (
        "candidate grid: the index is a power of 2 dividing the order, and the "
        "semi-symplectic power sigma^I has order at most 6"
    ),
    "order_two": (
        "an automorphism of order 2 (or odd order) acts trivially on the "
        "bi-2-form, so it cannot have index above 1"
    ),
    "half_odd": (
        "if n/2 were odd, sigma^(n/2) would be an order-2 automorphism "
        "multiplying the bi-2-form by -1, which is impossible"
    ),
    "no_order6_square": (
        "an index-2 automorphism whose square has order 6 is excluded: the "
        "order-3 symplectic part of the square would have a unique fixed "
        "point, forced to be fixed with determinant -1 on the tangent space, "
        "contradicting sigma^2 acting there with determinant 1"
    ),
    "square_inadmissible": (
        "sigma^2 has half the order and half the index, so (n, I) can only "
        "survive if (n/2, I/2) already did"
    ),
    "no_order8_square_index4": (
        "an index-4 automorphism whose square has order 8 is excluded: the "
        "two isolated symplectic fixed points of the square's fourth power "
        "lead to incompatible local eigenvalues"
    ),
    "no_index8": (
        "index 8 is excluded: the square would be the unique order-8 index-4 "
        "automorphism, and the four isolated fixed points of its fourth power "
        "admit no compatible order-8 local action"
    ),
}


class PruneRecord:
    """One rejected candidate with the rule that killed it."""

    def __init__(self, pair: Pair, rule: str):
        self.pair = pair
        self.rule = rule
        self.statement = RULE_STATEMENTS[rule]

    def __repr__(self) -> str:
        return f"PruneRecord({self.pair}, rule={self.rule})"


class ClassificationOutcome(NamedTuple):
    pairs: List[Pair]
    trace: List[PruneRecord]


def _prune_rule(n: int, index: int, survivors: Set[Pair]) -> Optional[str]:
    """Name of the first rule rejecting (n, index), or None if it survives.

    ``survivors`` holds the already-classified pairs of smaller index, which
    the halving cascade consults: the square of an index-I automorphism has
    order n/2 and index I/2.
    """
    if n == 2 or n % 2 == 1:
        return "order_two"
    if index == 2:
        half = n // 2
        if half % 2 == 1:
            return "half_odd"
        if half == 6:
            return "no_order6_square"
        return None
    if index == 4:
        if (n // 2, 2) not in survivors:
            return "square_inadmissible"
        if n // 2 == 8:
            return "no_order8_square_index4"
        return None
    if (n // 2, 4) not in survivors:
        return "square_inadmissible"
    return "no_index8"


def admissible_pairs() -> ClassificationOutcome:
    """Classify candidate (order, index) pairs with a full pruning trace.

    Candidates are n = I * m for I in {2, 4, 8} and 1 <= m <= 6; the rules
    are applied index by index so the halving cascade can consult the smaller
    indices already settled.  The survivors are exactly
    [(4, 2), (8, 2), (8, 4)].
    """
    survivors: Set[Pair] = set()
    trace: List[PruneRecord] = []
    for index in INDICES:
        for m in range(1, MAX_SEMI_SYMPLECTIC_ORDER + 1):
            n = index * m
            rule = _prune_rule(n, index, survivors)
            if rule is None:
                survivors.add((n, index))
            else:
                trace.append(PruneRecord((n, index), rule))
    return ClassificationOutcome(sorted(survivors), trace)


def allowed_orders() -> List[int]:
    """All finite orders an automorphism of the surfaces in question can have:
    semi-symplectic orders 1..6 together with the orders appearing in the
    admissible non-semi-symplectic pairs."""
    orders = set(range(1, MAX_SEMI_SYMPLECTIC_ORDER + 1))
    orders.update(n for n, _ in admissible_pairs().pairs)
    return sorted(orders)
