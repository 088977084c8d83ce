"""Parameter counts modulo rescaling, against the period-domain dimensions.

Each family's parameter space is cut down by the scaling actions that
preserve its equation: the homothety acts on every family, and family 3
additionally carries a diagonal rescaling of the base coordinates.  The
resulting counts match the dimensions computed from the transcendental
rank and the eigenvalue order on the other side.
"""

from enricert import (
    check_parameter_action,
    diagonal_base_scaling,
    family,
    homothety,
    moduli_dimension,
    moduli_number,
    picard_bound_for_82,
)

for k in (1, 2, 3):
    fam = family(k)
    actions = [homothety(fam)]
    if k == 3:
        actions.append(diagonal_base_scaling())
    count = moduli_number(fam, [check_parameter_action(fam, a) for a in actions])
    print(f"family {k}: {len(fam.parameters)} parameters, "
          f"{len(actions)} actions, moduli number {count}")

# The same numbers from lattice data: rank of the transcendental part
# divided by phi(order of the eigenvalue), minus one.
for k, (rank_t, n) in ((1, (12, 4)), (2, (12, 8)), (3, (6, 4))):
    print(f"family {k}: moduli dimension {moduli_dimension(rank_t, n)}")

print("Picard rank forced by an order-8 index-2 action:",
      picard_bound_for_82())
