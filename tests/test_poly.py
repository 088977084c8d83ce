"""Sparse multivariate polynomials and rational functions."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from enricert import (
    Cyclo, MPoly, ONE, RatFunc, SQRT_M1, ZETA8, exact_divide, jacobian_det2,
)
from enricert.cover import family
from enricert.errors import DegreeCapError, IndivisibleError
from enricert.maps import family_automorphism
from enricert.parsing import parse_expression
from enricert.poly import monomial_content, slot

from _helpers import nonzero_cyclo, nonzero_mpoly, rand_mpoly, rand_monomial_plane_map


def V(name):
    return MPoly.var(name)


def test_constructors_and_equality():
    y, z = V("y"), V("z")
    p = y * z + z ** 2
    assert p == z * y + z * z
    assert p != y * z
    assert MPoly.const(0).is_zero()
    assert (p - p).is_zero()
    assert MPoly.const(Fraction(1, 2)) * 2 == MPoly.const(1)


def test_coefficient_extraction_keeps_other_variables():
    y, z, A = V("y"), V("z"), V("A")
    p = A * y ** 2 * z + y ** 2 * z - z ** 3
    c = p.coefficient({"y": 2, "z": 1})
    assert c == A + MPoly.const(1)
    assert p.coefficient({"y": 0, "z": 3}) == MPoly.const(-1)
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
    assert p.partial("y") == MPoly.const(3) * y ** 2 * z ** 2
    assert p.partial("z") == MPoly.const(2) * y ** 3 * z
    assert MPoly.const(5).partial("y").is_zero()


def test_degree_cap_guards_runaway_products():
    y = V("y")
    p = y ** 60
    with pytest.raises(DegreeCapError):
        p * p


def test_power_equals_repeated_product():
    y, z = V("y"), V("z")
    p = y + z.scale(SQRT_M1) - 1
    product = MPoly.const(1)
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
    p = y ** 2 * z + MPoly.const(1)
    with pytest.raises(IndivisibleError) as err:
        exact_divide(p, y)
    assert not err.value.remainder.is_zero()


def test_monomial_content():
    y, z = V("y"), V("z")
    p = y ** 2 * z ** 3 + y ** 4 * z
    content = monomial_content(p)
    assert content[slot("y")] == 2
    assert content[slot("z")] == 1
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
    r = RatFunc(y, MPoly.const(2) * y ** 2)
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
    r = RatFunc(MPoly.const(3) * y, y)
    assert r.as_constant() == Cyclo(3)
    assert RatFunc.from_poly(y).as_constant() is None


def test_ratfunc_quotient_rule():
    y, z = V("y"), V("z")
    r = RatFunc(y ** 2, z)
    d = r.partial("z")
    assert d == RatFunc(-(y ** 2), z ** 2)
    assert r.partial("y") == RatFunc(MPoly.const(2) * y, z)


def test_substitute_into_ratfunc():
    y, z = V("y"), V("z")
    r = RatFunc(y ** 2 + z, z)
    inv = RatFunc(MPoly.const(1), y)
    image = r.substitute({"y": inv, "z": RatFunc.from_poly(z)})
    assert image == RatFunc(MPoly.const(1) + y ** 2 * z, y ** 2 * z)


def test_jacobian_of_plane_inversion():
    y, z = V("y"), V("z")
    fy = RatFunc(MPoly.const(1), y)
    fz = RatFunc(MPoly.const(1), z)
    j = jacobian_det2(fy, fz)
    assert j == RatFunc(MPoly.const(1), y ** 2 * z ** 2)


def test_str_forms_reparse():
    y, z, A = V("y"), V("z"), V("A")
    samples = [
        RatFunc.from_poly(y ** 2 * z - A),
        RatFunc(y + z, y * z),
        RatFunc(MPoly.const(SQRT_M1) * y, z ** 3),
        RatFunc(MPoly.const(1), MPoly.const(2) * y),
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
        exact_divide(p * q + MPoly.const(1), q)


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
    y, z = RatFunc.var("y"), RatFunc.var("z")
    for _ in range(120):
        fy, fz = rand_monomial_plane_map(rng)
        gy, gz = rand_monomial_plane_map(rng)
        comp_y = fy.substitute({"y": gy, "z": gz})
        comp_z = fz.substitute({"y": gy, "z": gz})
        lhs = jacobian_det2(comp_y, comp_z)
        rhs = jacobian_det2(fy, fz).substitute({"y": gy, "z": gz}) * jacobian_det2(gy, gz)
        assert lhs == rhs


# -- the two substitution paths ----------------------------------------------
#
# substitute takes the monomial path whenever every value is c * (Laurent
# monomial) and its degree bound allows; the term-by-term path must agree
# with it on the num/den pair, so every such substitution has a second,
# independent computation here.

_SLOTS = ("w", "y", "z", "A")


def _laurent_value(rng):
    """c * y^a * z^b with a, b in [-1, 1] and c a nonzero field element."""
    value = RatFunc.const(nonzero_cyclo(rng, span=2))
    for name in ("y", "z"):
        value = value * RatFunc.var(name) ** rng.randint(-1, 1)
    return value


def _monomial_case(seed):
    """(p, assignment) with a random subset of _SLOTS assigned.

    Exponents stay at most 2 per slot and values at most degree 2, so the
    monomial path's degree bound (at most 48 here) never exceeds the cap.
    Many cases add q * (x - g) to p, where g has the same image as the
    assigned slot x: another assigned slot given x's value, or c * u^k for
    an unassigned slot u that x is sent to.  Those terms all cancel.
    """
    rng = random.Random(seed)
    assigned = [n for n in _SLOTS if rng.random() < 0.6]
    assignment = {n: _laurent_value(rng) for n in assigned}
    p = rand_mpoly(rng, names=_SLOTS, max_terms=4, max_exp=1)
    free = [n for n in _SLOTS if n not in assigned]
    q = nonzero_mpoly(rng, names=_SLOTS, max_terms=2, max_exp=1)
    if len(assigned) >= 2 and rng.random() < 0.4:
        x, x2 = rng.sample(assigned, 2)
        assignment[x2] = assignment[x]
        p = p + q * (V(x) - V(x2))
    elif assigned and free and rng.random() < 0.6:
        x, u = rng.choice(assigned), rng.choice(free)
        image = MPoly.const(nonzero_cyclo(rng, span=2)) * V(u) ** rng.randint(0, 1)
        assignment[x] = RatFunc.from_poly(image)
        p = p + q * (V(x) - image)
    return p, assignment


def _both_paths(p, assignment):
    values = p._values(assignment)
    return p._substitute_monomials(values), p._substitute_terms(values)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_monomial_path_matches_term_by_term(seed):
    p, assignment = _monomial_case(seed)
    fast, slow = _both_paths(p, assignment)
    assert fast is not None
    assert fast == slow
    assert (fast.num, fast.den) == (slow.num, slow.den)
    assert str(fast) == str(slow)
    assert str(p.substitute(assignment)) == str(slow)


def test_monomial_path_cancels_to_zero():
    c = Cyclo(0, 1, 0, 2)
    p = (V("y") - MPoly.const(c) * V("z")) * (V("w") + V("A") ** 2)
    fast, slow = _both_paths(p, {"y": MPoly.const(c) * V("z")})
    assert fast.is_zero() and slow.is_zero()
    assert (fast.num, fast.den) == (slow.num, slow.den)


def test_cancelled_terms_leave_no_denominator():
    # y and w both go to c / z; the terms of (y - w) * (y + A) cancel, and
    # their z^-1 and z^-2 must not reach the denominator
    c = RatFunc(MPoly.const(Cyclo(1, 0, 1)), V("z"))
    p = (V("y") - V("w")) * (V("y") + V("A")) + V("z")
    fast, slow = _both_paths(p, {"y": c, "w": c})
    assert str(fast) == str(slow) == "z"


def test_monomial_path_keeps_a_monomial_denominator():
    y, z = V("y"), V("z")
    p = y ** 2 * z + MPoly.const(3) * z ** 2
    assignment = {"y": RatFunc(MPoly.const(SQRT_M1), y * z), "z": RatFunc.from_poly(y)}
    fast, slow = _both_paths(p, assignment)
    assert str(fast) == str(slow) == "(3*y^3*z^2 - 1) / (y*z^2)"


def test_non_monomial_values_take_the_term_by_term_path():
    y, z = V("y"), V("z")
    values = (y ** 2 + z)._values({"y": y + z})
    assert (y ** 2 + z)._substitute_monomials(values) is None


def test_fallback_is_taken_under_the_cap_when_the_bound_is_loose():
    # y -> 1/y^10 on y^4: the bound counts the denominator twice (80 > 64),
    # but the term-by-term path only reaches y^40 and succeeds
    y = V("y")
    values = (y ** 4)._values({"y": RatFunc(MPoly.const(1), y ** 10)})
    assert (y ** 4)._substitute_monomials(values) is None
    assert (y ** 4).substitute({"y": RatFunc(MPoly.const(1), y ** 10)}) == RatFunc(
        MPoly.const(1), y ** 40
    )


@pytest.mark.parametrize(
    "poly_text,values",
    [
        ("y^2 + z", {"y": "y^40"}),
        ("y^4*z", {"y": "1 / y^20"}),
        # each term stays at degree 40; adding them cross-multiplies the
        # denominators into y^40*z^40
        ("y^4 + z^4", {"y": "1 / y^10", "z": "1 / z^10"}),
    ],
)
def test_over_the_bound_falls_back_and_raises_the_cap_error(poly_text, values):
    p = parse_expression(poly_text).as_poly()
    assignment = {name: parse_expression(text) for name, text in values.items()}
    assert p._substitute_monomials(p._values(assignment)) is None
    with pytest.raises(DegreeCapError) as err:
        p.substitute(assignment)
    assert str(err.value) == "product term of total degree 80 exceeds cap 64"


# -- failed divisions and constant denominators -------------------------------


def test_indivisible_error_text_is_unchanged():
    y, z = V("y"), V("z")
    p = y ** 2 * z + MPoly.const(1)
    with pytest.raises(IndivisibleError) as err:
        exact_divide(p, y + z)
    assert str(err.value) == "leading term not divisible while dividing by y + z"
    assert err.value.divisor == y + z
    assert f"IndivisibleError: {err.value}" == (
        "IndivisibleError: leading term not divisible while dividing by y + z"
    )


def test_constant_denominator_is_one():
    y = V("y")
    r = RatFunc(MPoly.const(2) * y, MPoly.const(Cyclo(0, 3)))
    assert r.den == MPoly.const(1)
    assert r.as_poly() is r.num
    assert r.as_poly() == y.scale(Cyclo(0, 3).inverse() * 2)
    image = (y ** 2).substitute_poly({"y": r})
    assert image == (y * y).scale((Cyclo(0, 3).inverse() * 2) ** 2)


# -- pickling and copying ------------------------------------------------------


_ROUND_TRIP = {
    "zeta8": lambda: ZETA8,
    "branch": lambda: family(1).branch,
    "map-coordinate": lambda: family_automorphism(2).coords["w"],
}


def test_unknown_variable_is_a_key_error_naming_it():
    for lookup in (lambda: slot("q"), lambda: MPoly.var("q"), lambda: V("y").degree_in("q")):
        with pytest.raises(KeyError, match="unknown variable 'q'"):
            lookup()


@pytest.mark.parametrize("name", sorted(_ROUND_TRIP))
def test_pickle_and_deepcopy_round_trip(name):
    value = _ROUND_TRIP[name]()
    for restored in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(restored) is type(value)
        assert restored == value
        assert str(restored) == str(value)


@settings(max_examples=100, deadline=None)
@given(nonzero_polys, st.integers(min_value=0, max_value=10 ** 9))
def test_monomial_denominator_admits_no_further_division(p, seed):
    # RatFunc stops simplifying at a monomial denominator; exact division
    # either way must confirm that nothing more cancels
    rng = random.Random(seed)
    den = MPoly.monomial({n: rng.randint(0, 3) for n in ("y", "z", "A")}, nonzero_cyclo(rng)
    )
    r = RatFunc(p, den)
    assert r.num * den == p * r.den
    if r.den.is_constant():
        return
    with pytest.raises(IndivisibleError):
        exact_divide(r.num, r.den)
    if not r.num.is_constant():
        with pytest.raises(IndivisibleError):
            exact_divide(r.den, r.num)
