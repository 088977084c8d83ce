"""
=========================================
The three families and their automorphisms
=========================================

Each built-in family is a double plane w^2 = z * f(y, z) with branch
polynomial f supported on 4 <= i + 2j <= 8 and affine-linear coefficients
in the parameters A..F.  This script builds all three, pulls the defining
equation back along the built-in coordinate maps, and confirms the orders.
"""

from enricert import (
    check_equation_invariance,
    compose,
    family,
    family_automorphism,
    map_order,
    maps_equal,
)

for k in (1, 2, 3):
    fam = family(k)
    print(f"family {k}: parameters {fam.parameters}, "
          f"{len(fam.geometric_support())} monomials")

# Pullback of w^2 - z*f must vanish modulo the relation; the verdict comes
# with even/odd remainder witnesses that are zero exactly on success.
for k in (1, 2, 3):
    fam = family(k)
    phi = family_automorphism(k)
    result = check_equation_invariance(fam, phi)
    print(f"family {k}: {phi.label} preserves the equation: {bool(result)}")

orders = [map_order(family_automorphism(k)) for k in (1, 2, 3)]
print("orders:", orders)

# The order-8 map on family 2 squares to the order-4 map of family 1.
sigma1 = family_automorphism(1)
sigma2 = family_automorphism(2)
square = compose(sigma2, sigma2)
print("order-8 map squares to the order-4 map:", maps_equal(square, sigma1))
