"""Sparse multivariate polynomials and rational functions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from enricert import Cyclo, MPoly, ONE, RatFunc, SQRT_M1, TABLE, exact_divide, jacobian_det2
from enricert.errors import DegreeCapError, IndivisibleError
from enricert.parsing import parse_expression
from enricert.poly import monomial_content

from _helpers import nonzero_mpoly, rand_mpoly, rand_monomial_plane_map


def V(name):
    return MPoly.var(name, TABLE)


def test_constructors_and_equality():
    y, z = V("y"), V("z")
    p = y * z + z ** 2
    assert p == z * y + z * z
    assert p != y * z
    assert MPoly.const(0, TABLE).is_zero()
    assert (p - p).is_zero()
    assert MPoly.const(Fraction(1, 2), TABLE) * 2 == MPoly.const(1, TABLE)


def test_coefficient_extraction_keeps_other_variables():
    y, z, A = V("y"), V("z"), V("A")
    p = A * y ** 2 * z + y ** 2 * z - z ** 3
    c = p.coefficient({"y": 2, "z": 1})
    assert c == A + MPoly.const(1, TABLE)
    assert p.coefficient({"y": 0, "z": 3}) == MPoly.const(-1, TABLE)
    assert p.coefficient({"y": 5, "z": 0}).is_zero()


def test_degree_queries():
    y, z = V("y"), V("z")
    p = y ** 3 * z + z ** 2
    assert p.degree_in("y") == 3
    assert p.degree_in("z") == 2
    assert p.degree_in("w") == 0


def test_partial_derivatives():
    y, z = V("y"), V("z")
    p = y ** 3 * z ** 2
    assert p.partial("y") == MPoly.const(3, TABLE) * y ** 2 * z ** 2
    assert p.partial("z") == MPoly.const(2, TABLE) * y ** 3 * z
    assert MPoly.const(5, TABLE).partial("y").is_zero()


def test_degree_cap_guards_runaway_products():
    y = V("y")
    p = y ** 60
    with pytest.raises(DegreeCapError):
        p * p


def test_power_equals_repeated_product():
    y, z = V("y"), V("z")
    p = y + z.scale(SQRT_M1) - 1
    product = MPoly.const(1, TABLE)
    for n in range(10):
        assert p ** n == product
        product = product * p
    assert (y ** 64).degree_in("y") == 64
    with pytest.raises(DegreeCapError):
        y ** 65


def test_exact_divide_by_non_monic_divisor():
    y, z = V("y"), V("z")
    q = (y - z).scale(Cyclo(Fraction(2, 3), 0, 1))
    p = (y ** 2 + z) * q
    assert exact_divide(p, q) == y ** 2 + z


def test_exact_divide_recovers_factor():
    y, z = V("y"), V("z")
    p = (y ** 2 + z) * (y - z ** 2)
    assert exact_divide(p, y ** 2 + z) == y - z ** 2
    assert exact_divide(p, y - z ** 2) == y ** 2 + z


def test_exact_divide_remainder_witness():
    y, z = V("y"), V("z")
    p = y ** 2 * z + MPoly.const(1, TABLE)
    with pytest.raises(IndivisibleError) as err:
        exact_divide(p, y)
    assert not err.value.remainder.is_zero()


def test_monomial_content():
    y, z = V("y"), V("z")
    p = y ** 2 * z ** 3 + y ** 4 * z
    content = monomial_content(p)
    assert content[TABLE.index("y")] == 2
    assert content[TABLE.index("z")] == 1
    assert sum(content) == 3


def test_ratfunc_cancellation():
    y, z = V("y"), V("z")
    r = RatFunc(y ** 2 * z, y * z ** 2)
    assert r == RatFunc(y, z)
    assert str(r) == "y / z"
    # polynomial factors cancel too
    r2 = RatFunc((y + z) * (y - z), y + z)
    assert r2 == RatFunc.from_poly(y - z)


def test_ratfunc_normalizes_leading_denominator_coefficient():
    y = V("y")
    r = RatFunc(y, MPoly.const(2, TABLE) * y ** 2)
    assert r.den.leading_term()[1] == ONE


def test_ratfunc_arithmetic():
    y, z = V("y"), V("z")
    ry, rz = RatFunc.from_poly(y), RatFunc.from_poly(z)
    assert ry / rz + rz / ry == RatFunc(y ** 2 + z ** 2, y * z)
    assert (ry / rz) * (rz / ry) == 1
    assert (ry / rz) ** -2 == RatFunc(z ** 2, y ** 2)
    assert -(ry / rz) + ry / rz == 0


def test_ratfunc_as_constant():
    y = V("y")
    r = RatFunc(MPoly.const(3, TABLE) * y, y)
    assert r.as_constant() == Cyclo(3)
    assert RatFunc.from_poly(y).as_constant() is None


def test_ratfunc_quotient_rule():
    y, z = V("y"), V("z")
    r = RatFunc(y ** 2, z)
    d = r.partial("z")
    assert d == RatFunc(-(y ** 2), z ** 2)
    assert r.partial("y") == RatFunc(MPoly.const(2, TABLE) * y, z)


def test_substitute_into_ratfunc():
    y, z = V("y"), V("z")
    r = RatFunc(y ** 2 + z, z)
    inv = RatFunc(MPoly.const(1, TABLE), y)
    image = r.substitute({"y": inv, "z": RatFunc.from_poly(z)})
    assert image == RatFunc(MPoly.const(1, TABLE) + y ** 2 * z, y ** 2 * z)


def test_jacobian_of_plane_inversion():
    y, z = V("y"), V("z")
    fy = RatFunc(MPoly.const(1, TABLE), y)
    fz = RatFunc(MPoly.const(1, TABLE), z)
    j = jacobian_det2(fy, fz)
    assert j == RatFunc(MPoly.const(1, TABLE), y ** 2 * z ** 2)


def test_str_forms_reparse():
    y, z, A = V("y"), V("z"), V("A")
    samples = [
        RatFunc.from_poly(y ** 2 * z - A),
        RatFunc(y + z, y * z),
        RatFunc(MPoly.const(SQRT_M1, TABLE) * y, z ** 3),
        RatFunc(MPoly.const(1, TABLE), MPoly.const(2, TABLE) * y),
    ]
    for r in samples:
        assert parse_expression(str(r)) == r


# -- randomized property suites ----------------------------------------------

# exponents capped at 1: cross-multiplied equality of substituted products
# must stay inside the engine's total-degree guard
small_polys = st.builds(
    lambda seed: rand_mpoly(
        random.Random(seed), names=("y", "z"), max_terms=2, max_exp=1, span=2
    ),
    st.integers(min_value=0, max_value=10 ** 9),
)
nonzero_polys = st.builds(
    lambda seed: nonzero_mpoly(random.Random(seed), names=("y", "z", "A")),
    st.integers(min_value=0, max_value=10 ** 9),
)


@settings(max_examples=120, deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_exact_divide_round_trip(p, q):
    assert exact_divide(p * q, q) == p


@settings(max_examples=120, deadline=None)
@given(nonzero_polys, nonzero_polys)
def test_indivisible_after_constant_bump(p, q):
    # p*q + 1 is divisible by q only when q is a unit
    if q.is_constant():
        return
    with pytest.raises(IndivisibleError):
        exact_divide(p * q + MPoly.const(1, TABLE), q)


def _small_target(rng):
    kw = dict(names=("y", "z"), max_terms=2, max_exp=1, span=2)
    return RatFunc(nonzero_mpoly(rng, **kw), nonzero_mpoly(rng, **kw))


@settings(max_examples=100, deadline=None)
@given(small_polys, small_polys, st.integers(min_value=0, max_value=10 ** 9))
def test_substitution_is_a_ring_map(p, q, seed):
    rng = random.Random(seed)
    assignment = {"y": _small_target(rng), "z": _small_target(rng)}
    lhs_sum = (p + q).substitute(assignment)
    rhs_sum = p.substitute(assignment) + q.substitute(assignment)
    assert lhs_sum == rhs_sum
    lhs_prod = (p * q).substitute(assignment)
    rhs_prod = p.substitute(assignment) * q.substitute(assignment)
    assert lhs_prod == rhs_prod


def test_jacobian_multiplicativity_random_monomial_maps():
    rng = random.Random(20260822)
    y, z = RatFunc.var("y", TABLE), RatFunc.var("z", TABLE)
    for _ in range(120):
        fy, fz = rand_monomial_plane_map(rng)
        gy, gz = rand_monomial_plane_map(rng)
        comp_y = fy.substitute({"y": gy, "z": gz})
        comp_z = fz.substitute({"y": gy, "z": gz})
        lhs = jacobian_det2(comp_y, comp_z)
        rhs = jacobian_det2(fy, fz).substitute({"y": gy, "z": gz}) * jacobian_det2(gy, gz)
        assert lhs == rhs
