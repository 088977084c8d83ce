"""Seeded ``enricert-input/1`` documents for the custom-documents workload.

A document holds, for each built-in family k = 1, 2, 3:

- a re-specialisation ``respec<k>``, made by ``specialize`` with a random
  invertible linear substitution of the parameters: the i-th parameter maps
  to c_i * p_i + d_i * p_(i+1), with c_i, d_i random Q(zeta_8) values whose
  coordinates are fractions of h-digit integers, h drawn per family in 1..8;
- the family's ``homothety`` action;

then the three built-in automorphisms and one decoy map y -> a*y with a
rational a, |a| not 0 or 1.

Because the substitution is invertible and leaves the coordinates alone,
each re-specialisation is the built-in family under new parameter names, so
every verdict is known before the engine runs: the automorphisms preserve
the same families as on the built-ins (orders 4, 8, 8; form ratios -1, -i,
-1), every corner coefficient stays a nonzero linear form (the covers stay
free), and the decoy preserves nothing, since a family with monomials
y^4 z^j and y^0 z^j' is fixed by y -> a*y only when a^4 = 1.
"""

import json
import random
from fractions import Fraction

from enricert import (
    Cyclo,
    MPoly,
    TABLE,
    family,
    family_automorphism,
    homothety,
    load_document,
    serialize_document,
    specialize,
)

FAMILIES = (1, 2, 3)
MAX_HEIGHT = 8

# Built-in facts the re-specialisations keep: monomial count, parameter
# count, and the effective parameter count under the homothety alone.
_SHAPE = {1: (12, 6, 5), 2: (12, 3, 2), 3: (6, 4, 3)}
# Built-in automorphism label -> (families it preserves, order on the first,
# encoded bi-2-form ratio on the first).
_MAPS = {
    "aut_4_2": ((1, 2), 4, "-1,0,0,0"),
    "aut_8_4": ((2,), 8, "0,0,-1,0"),
    "aut_8_2": ((3,), 8, "-1,0,0,0"),
}
DECOY = "decoy"


def _rational(rng, height):
    lo, hi = 10 ** (height - 1), 10 ** height
    return Fraction(rng.choice((1, -1)) * rng.randrange(lo, hi), rng.randrange(lo, hi))


def _scalar(rng, height):
    return Cyclo(*(_rational(rng, height) for _ in range(4)))


def _respecialize(rng, k, height):
    fam = family(k)
    params = fam.parameters
    substitution = {}
    for i, p in enumerate(params):
        image = MPoly.var(p, TABLE).scale(_scalar(rng, height))
        if i + 1 < len(params):
            image = image + MPoly.var(params[i + 1], TABLE).scale(_scalar(rng, height))
        substitution[p] = image
    return specialize(fam, substitution)


def generate(seed, index):
    """Document number ``index`` of a seed: (JSON text, heights, expected).

    ``expected`` lists, in output order, each custom record as
    (id, tag, value); a value of None means the record prints none.
    """
    rng = random.Random(f"custom-documents:{seed}:{index}")
    heights = [rng.randint(1, MAX_HEIGHT) for _ in FAMILIES]
    families = [_respecialize(rng, k, h) for k, h in zip(FAMILIES, heights)]
    actions = {fam.name: (homothety(fam),) for fam in families}
    document = serialize_document(
        families, [family_automorphism(k) for k in FAMILIES], actions
    )
    names = {}
    for k, entry in zip(FAMILIES, document["families"]):
        names[k] = entry["name"] = f"respec{k}"
    a = Fraction(rng.randrange(2, 10 ** heights[0]), rng.randrange(1, 10 ** heights[0]))
    if abs(a) == 1:
        a += 1
    document["maps"].append(
        {"name": DECOY, "coords": {"w": "w", "y": f"{a}*y", "z": "z"}}
    )
    text = json.dumps(document, indent=1) + "\n"
    load_document(json.loads(text))
    return text, heights, _expected(names)


def _expected(names):
    out = []
    for k in FAMILIES:
        monomials, params, _ = _SHAPE[k]
        out.append((f"custom-{names[k]}-construction", "PASS",
                    f"{monomials} monomials in {params} parameters"))
        out.append((f"custom-{names[k]}-cover", "PASS", "bidegree (4, 4); free: True"))
    for label, (holders, _, _) in _MAPS.items():
        out.append((f"custom-invariance-{label}", "PASS",
                    ", ".join(names[k] for k in holders)))
    out.append((f"custom-invariance-{DECOY}", "FAIL", None))
    for label, (_, order, ratio) in _MAPS.items():
        out.append((f"custom-order-{label}", "PASS", str(order)))
        out.append((f"custom-ratio-{label}", "PASS", ratio))
    for k in FAMILIES:
        out.append((f"custom-action-{names[k]}-homothety", "PASS",
                    "needs sqrt(alpha): True"))
        out.append((f"custom-moduli-{names[k]}", "PASS", str(_SHAPE[k][2])))
    return out
