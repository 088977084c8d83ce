"""Pullback action on the residue forms.

On a double plane w^2 = z*f the bi-2-form (dy ^ dz / w)^2 is intrinsic,
and an automorphism multiplies it by a constant root of unity.  The order
of that root is the index of the automorphism.  On the K3 cover the honest
2-form dY ^ dZ / W plays the same role and sees the full order.
"""

from enricert import (
    bitwoform_pullback_ratio,
    check_equation_invariance,
    compose,
    deck_flip,
    family,
    family_automorphism,
    index_of,
    k3_cover,
    k3_lift,
    k3_twoform_ratio,
)


def ratio_of(form, fam, phi):
    """A ratio needs the certified invariance of the map it measures."""
    return form(fam, phi, check_equation_invariance(fam, phi))


for k in (1, 2, 3):
    ratio = ratio_of(bitwoform_pullback_ratio, family(k), family_automorphism(k))
    print(f"family {k}: bi-2-form ratio {ratio}, "
          f"index {index_of(ratio)}")

# The ratio is multiplicative under composition, so powers walk through
# the cyclic group generated by the ratio of the map itself.
fam = family(2)
sigma = family_automorphism(2)
current = sigma
for n in (1, 2, 3, 4):
    r = ratio_of(bitwoform_pullback_ratio, fam, current)
    print(f"power {n}: ratio {r}")
    current = compose(sigma, current)

# Lifts to the cover act on the 2-form itself; composing with the deck
# transformation flips the sign of the ratio.
for k in (1, 2):
    cov = k3_cover(family(k))
    lift = k3_lift(k)
    r = ratio_of(k3_twoform_ratio, cov, lift)
    r_flip = ratio_of(k3_twoform_ratio, cov, compose(lift, deck_flip()))
    print(f"cover {k}: lift ratio {r}, with deck {r_flip}")

print("deck transformation ratio:",
      ratio_of(k3_twoform_ratio, k3_cover(family(1)), deck_flip()))
