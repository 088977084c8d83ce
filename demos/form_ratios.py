"""Pullback action on the residue forms.

On a double plane w^2 = z*f the bi-2-form (dy ^ dz / w)^2 is intrinsic,
and an automorphism multiplies it by a constant root of unity.  The order
of that root is the index of the automorphism.  On the K3 cover the honest
2-form dY ^ dZ / W plays the same role and sees the full order.
"""

from enricert import (
    bitwoform_pullback_ratio,
    compose,
    deck_flip,
    family,
    family_automorphism,
    index_of,
    k3_cover,
    k3_lift,
    k3_twoform_ratio,
)

for k in (1, 2, 3):
    ratio = bitwoform_pullback_ratio(family(k), family_automorphism(k))
    print(f"family {k}: bi-2-form ratio {ratio.value}, "
          f"index {index_of(ratio)}")

# The ratio is multiplicative under composition, so powers walk through
# the cyclic group generated by the ratio of the map itself.
fam = family(2)
sigma = family_automorphism(2)
current = sigma
for n in (1, 2, 3, 4):
    r = bitwoform_pullback_ratio(fam, current)
    print(f"power {n}: ratio {r.value}")
    current = compose(sigma, current)

# Lifts to the cover act on the 2-form itself; composing with the deck
# transformation flips the sign of the ratio.
for k in (1, 2):
    cov = k3_cover(family(k))
    lift = k3_lift(k)
    r = k3_twoform_ratio(cov, lift)
    r_flip = k3_twoform_ratio(cov, compose(lift, deck_flip()))
    print(f"cover {k}: lift ratio {r.value}, with deck {r_flip.value}")

print("deck transformation ratio:",
      k3_twoform_ratio(k3_cover(family(1)), deck_flip()).value)
