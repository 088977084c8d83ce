"""Shared random-instance generators for the property suites.

Everything takes an explicit random.Random so failures reproduce from the
seed printed by the test that caught them.
"""

from fractions import Fraction

from enricert import Cyclo, MPoly, Mobius, RatFunc


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
