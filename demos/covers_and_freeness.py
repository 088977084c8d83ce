"""K3 covers, the two side conditions, and fixed-point freeness.

The cover of w^2 = z*f(y, z) substitutes y = Y*Z, z = Z^2 and divides by
Z^4, giving W^2 = g(Y, Z) of bidegree (4, 4) with only even total degrees.
The covering involution eps acts by (W, Y, Z) -> (-W, -Y, -Z); it is free
exactly when g misses all four corner monomials' zero loci, which here
amounts to four corner coefficients being units.
"""

from enricert import (
    BirMap,
    check_equation_invariance,
    epsilon_fixed_point_free,
    family,
    k3_cover,
    k3_lift,
)

for k in (1, 2, 3):
    cov = k3_cover(family(k))
    print(f"cover of family {k}: {len(cov.geometric_support())} monomials")

# Two recognized shapes of the branch certify a bit of extra symmetry:
# Y^4 Z^4 g(1/Y, 1/Z) = -g and Z^4 g(1/Z, Y) = i*g say exactly that the
# lifts W -> i*W/(Y^2 Z^2) and W -> zeta8*W/Z^2 preserve W^2 = g.
for k in (1, 2, 3):
    cov = k3_cover(family(k))
    one = check_equation_invariance(cov, k3_lift(1)).holds
    two = check_equation_invariance(cov, k3_lift(2)).holds
    print(f"cover {k}: condition 1 {one}, condition 2 {two}")

for k in (1, 2, 3):
    res = epsilon_fixed_point_free(k3_cover(family(k)))
    corners = {pos: str(val) for pos, val in res.corners.items()}
    print(f"cover {k}: eps free = {bool(res)}, corners {corners}")

# A map sends w to a + b*w with a, b functions on the base, and the
# relation w^2 = S enters only through (a + b*w)^2 = a^2 + b^2*S + 2ab*w.
# The shift w -> y + w leaves the even part y^2 and the odd part 2*y.
shift = BirMap.from_strings(family(3).variables, label="shift", w="y + w", y="y", z="z")
res = check_equation_invariance(family(3), shift)
print(f"w -> y + w preserves the equation: {bool(res)}; "
      f"even part {res.witness_even}; odd part {res.witness_odd}")
