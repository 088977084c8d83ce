"""Shared random-instance generators for the property suites.

Everything takes an explicit random.Random so failures reproduce from the
seed printed by the test that caught them.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from enricert import SQRT_M1, Cyclo, MPoly, Mobius, RatFunc
from enricert.ingest import load_document
from enricert.poly import slot

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def rand_fraction(rng, span=4):
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def rand_cyclo(rng, span=3, density=0.6):
    coords = [
        rand_fraction(rng, span) if rng.random() < density else Fraction(0)
        for _ in range(4)
    ]
    return Cyclo(*coords)


def nonzero_cyclo(rng, span=3):
    while True:
        c = rand_cyclo(rng, span)
        if not c.is_zero():
            return c


#: Expressions of the coordinate grammar: atoms, parenthesized sums,
#: differences, products and quotients of two expressions, and powers with
#: exponents from -3 to 70 (those over the degree cap are parse errors).
WELL_FORMED_EXPRESSIONS = st.recursive(
    st.sampled_from(["w", "y", "z", "A", "i", "zeta8", "0", "1", "3/2"]),
    lambda inner: st.tuples(inner, st.sampled_from("+-*/"), inner).map(
        lambda t: f"({t[0]}{t[1]}{t[2]})"
    )
    | st.tuples(inner, st.integers(min_value=-3, max_value=70)).map(
        lambda t: f"{t[0]}^{t[1]}"
    ),
    max_leaves=6,
)


def rand_mpoly(rng, names=("y", "z"), max_terms=3, max_exp=3, span=3):
    p = MPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        term = MPoly.const(rand_cyclo(rng, span, density=1.0))
        for name in names:
            term = term * MPoly.var(name) ** rng.randint(0, max_exp)
        p = p + term
    return p


def nonzero_mpoly(rng, **kw):
    while True:
        p = rand_mpoly(rng, **kw)
        if not p.is_zero():
            return p


def rand_rational_mobius(rng, span=3):
    """An invertible Mobius map with small rational entries."""
    while True:
        entries = [Cyclo.from_rational(rand_fraction(rng, span)) for _ in range(4)]
        a, b, c, d = entries
        if not (a * d - b * c).is_zero():
            return Mobius(a, b, c, d)


_DIAGONAL_RATIOS = (
    Fraction(-1), Fraction(2), Fraction(3), Fraction(-2),
    Fraction(1, 2), Fraction(-1, 3), Fraction(5), Fraction(-5, 2),
)


def semisimple_mobius(rng):
    """h . diag(lambda, 1) . h^-1 with lambda != 0, 1: exactly two fixed
    points h(0), h(infinity), both rational, never parabolic."""
    lam = Cyclo.from_rational(rng.choice(_DIAGONAL_RATIOS))
    h = rand_rational_mobius(rng)
    core = Mobius(lam, Cyclo(0), Cyclo(0), Cyclo(1))
    return h @ core @ h.inverse()


def rand_monomial_plane_map(rng, span=2):
    """(y, z) -> (c1 y^a z^b, c2 y^c z^d) with ad - bc != 0, as RatFuncs."""
    while True:
        a, b, c, d = (rng.randint(-span, span) for _ in range(4))
        if a * d - b * c != 0:
            break
    y = RatFunc.var("y")
    z = RatFunc.var("z")
    c1 = RatFunc.const(nonzero_cyclo(rng, span=2))
    c2 = RatFunc.const(nonzero_cyclo(rng, span=2))
    return c1 * y ** a * z ** b, c2 * y ** c * z ** d


def load_docgen():
    """``perfbench/docgen.py``, the benchmark's document generator, imported
    from its directory and only read."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import docgen
    finally:
        sys.path.remove(str(PERFBENCH))
    return docgen


def _documents(seeds, indices):
    docgen = load_docgen()
    return [
        load_document(json.loads(docgen.generate(seed, index)[0]))
        for seed in seeds
        for index in indices
    ]


def document_pairs(seeds=(1, 2, 3), indices=(0, 1, 2)):
    """Every (family, map) pair of the generated documents of the given
    seeds and indices, the failing decoy map included."""
    return [
        (fam, phi)
        for doc in _documents(seeds, indices)
        for fam in doc.families
        for phi in doc.maps
    ]


def document_families(seeds=(1, 2, 3), indices=(0, 1, 2)):
    """Every family of the generated documents of the given seeds and
    indices."""
    return [fam for doc in _documents(seeds, indices) for fam in doc.families]


def bis_condition(cover, which):
    """Whether the branch g of a K3 cover satisfies condition 1,
    Y^4 Z^4 g(1/Y, 1/Z) = -g, or condition 2, Z^4 g(1/Z, Y) = i*g.

    Read term by term, with no substitution: the left side sends
    c * Y^i Z^j to c * Y^(4-i) Z^(4-j), or to c * Y^j Z^(4-i).
    """
    iy, iz = slot("Y"), slot("Z")
    lhs, rhs = {}, {}
    for e, c in cover.branch.term_items():
        i, j = e[iy], e[iz]
        moved = list(e)
        moved[iy], moved[iz] = (4 - i, 4 - j) if which == 1 else (j, 4 - i)
        lhs[tuple(moved)] = c
        rhs[e] = -c if which == 1 else SQRT_M1 * c
    return lhs == rhs
