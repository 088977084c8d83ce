"""Fixed-point bookkeeping on the quadric, both Lefschetz identities."""

from enricert import (
    Cyclo,
    FixedCurveData,
    SQRT_M1,
    ZERO,
    holomorphic_lefschetz_case_a,
    holomorphic_lefschetz_case_b,
    hyperbolic_plane,
    inv_both,
    isometries_with_trace,
    k4_normal_form_check,
    neg_both,
    qaut_fixed_points,
    swap_root,
    topological_lefschetz_count,
)

# Isolated fixed points: the holomorphic identity pins the count to 4
# for either square root acting on the 2-form.
for sign in (1, -1):
    print(f"sign {sign:+d}: isolated fixed point count",
          holomorphic_lefschetz_case_b(sign))

# A pointwise-fixed curve of genus 9 with self-intersection 16 would have
# to satisfy the same identity, and does not.
curve = FixedCurveData(genus=9, self_intersection=16)
for sign in (1, -1):
    lhs, rhs, equal = holomorphic_lefschetz_case_a(sign, curve)
    print(f"sign {sign:+d}: curve case lhs {lhs}, rhs {rhs}, equal {equal}")

# Fixed loci of the coordinate involutions on P^1 x P^1, with the
# topological count 2 + trace as cross-check.  The engine counts the fixed
# points without solving for them; the paper names them, and a point x of
# P^1 is fixed by (a, b; c, d) exactly when c x^2 + (d - a) x - b = 0, or,
# for x = oo, when c = 0.
def fixes(m, x):
    if x == "oo":
        return m.c.is_zero()
    return (m.c * x * x + (m.d - m.a) * x - m.b).is_zero()


one, i = Cyclo(1), SQRT_M1
involutions = [
    ("negate both", neg_both(), [ZERO, "oo"]),
    ("invert both", inv_both(), [one, -one]),
    ("their product", neg_both().compose(inv_both()), [i, -i]),
]
for label, g, named in involutions:
    data = qaut_fixed_points(g)
    named_fixed = all(fixes(m, x) for m in (g.m1, g.m2) for x in named)
    assert named_fixed and data.count == len(named) ** 2
    names = ", ".join(str(x) for x in named)
    print(f"{label}: {data.count} fixed points, {{{names}}}^2 fixed: {named_fixed}, "
          f"topological count {topological_lefschetz_count(g.ns_trace())}")

# The ruling swap (Y, Z) -> (1/Z, Y) fixes (Y0, m2 . Y0) for each Y0 fixed
# by m1 . m2; m2 is the identity, so the points are (1, 1) and (-1, -1).
g = swap_root(1)
data = qaut_fixed_points(g)
named_fixed = all(fixes(g.m1 @ g.m2, x) for x in (one, -one))
assert named_fixed and data.count == 2
print(f"factor swap: {data.count} fixed points, Y0 = 1 and -1 are fixed: "
      f"{named_fixed}")

# Square roots of the coordinate involutions inside the monomial group:
# only factor-swapping roots exist for the double inversion.
k4 = k4_normal_form_check()
print("Klein four-group relations hold:", k4.klein_ok)
print("square roots of the double inversion:", len(k4.roots),
      "of which direct:", len(k4.direct_roots))

# Isometries of U(2) with trace 2 and bounded entries: only the identity,
# so an invariant hyperbolic summand forces trivial action there.
u2 = hyperbolic_plane(2)
fixed = isometries_with_trace(u2, 2, bound=2)
print("U(2) isometries with trace 2:", fixed)
print("U(2) isometries with trace 0:",
      [m for m in isometries_with_trace(u2, 0, bound=2)])
