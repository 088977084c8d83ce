"""Sparse multivariate polynomials and rational functions."""

import ast
import copy
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import enricert
from enricert import (
    Cyclo, MPoly, ONE, RatFunc, SQRT_M1, ZERO, ZETA8, exact_divide, jacobian_det2,
)
from enricert.cover import family
from enricert.errors import DegreeCapError, IndivisibleError, SizeCapError
from enricert.maps import family_automorphism
from enricert.parsing import parse_expression
from enricert.poly import (
    DEGREE_CAP, MAX_TERM_PAIRS, PARAMETERS, VARIABLES, RunningSum, laurent_difference, slot,
)

from _helpers import (
    general_ratfunc_inverse, general_ratfunc_mul, general_ratfunc_pow, nonzero_cyclo,
    nonzero_mpoly, outcome, raised_degree_cap, rand_cyclo, rand_mpoly, rand_monomial_plane_map,
    square_and_multiply_mpoly_pow,
)


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


def test_size_cap_bounds_the_work_of_a_product():
    y, z = V("y"), V("z")
    square = MPoly.zero()
    for i in range(16):
        for j in range(16):
            square = square + y ** i * z ** j
    # 256 * 256 term pairs is exactly the cap, which is allowed
    assert len(square.terms) ** 2 == MAX_TERM_PAIRS
    assert len((square * square).terms) == 31 * 31
    with pytest.raises(SizeCapError, match="257 by 256 terms exceeds cap 65536"):
        (square + y ** 20) * square


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
    # the content y^2*z of p cancels against the denominator
    y, z = V("y"), V("z")
    p = y ** 2 * z ** 3 + y ** 4 * z
    r = RatFunc(p, y ** 5 * z ** 5)
    assert r.num == z ** 2 + y ** 2
    assert r.den.term_items() == ((_exponent_tuple(("y", "z"), (3, 4)), ONE),)


def test_ratfunc_cancellation():
    y, z = V("y"), V("z")
    r = RatFunc(y ** 2 * z, y * z ** 2)
    assert r == RatFunc(y, z)
    assert str(r) == "y / z"
    # polynomial factors cancel too
    r2 = RatFunc((y + z) * (y - z), y + z)
    assert r2 == RatFunc.from_poly(y - z)


def test_a_numerator_dividing_the_denominator_leaves_the_cofactor():
    # y^2 - 1 does not divide y + 1, but y + 1 divides it: the quotient is
    # 1 over the cofactor, renormalized to a monic denominator
    y = V("y")
    one = MPoly.const(1)
    for num, expected in ((y + one, one), (MPoly.const(2) * y + MPoly.const(2), MPoly.const(2))):
        r = RatFunc(num, y ** 2 - one)
        assert (r.num, r.den) == (expected, y - one)
    assert str(parse_expression("(y+1)/(y^2-1)")) == "1 / (y - 1)"


def test_ratfunc_normalizes_leading_denominator_coefficient():
    y = V("y")
    r = RatFunc(y, MPoly.const(2) * y ** 2)
    assert r.den.term_items()[0][1] == ONE


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
# substitute takes the monomial path whenever every value has a monomial
# denominator, short of its hand-overs; the term-by-term path must agree
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
    images stay far inside the lane guard and the cap, and the monomial
    path answers.
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


def _polynomial_value(rng):
    """A value with a monomial denominator and a numerator of other than
    one term: zero, affine in the parameters B and C (as specialize
    assigns), or up to three terms in y, z and A over y^a * z^b."""
    kind = rng.randrange(3)
    if kind == 0:
        return RatFunc.zero()
    if kind == 1:
        return RatFunc.from_poly(MPoly.sum_monomials(
            [({}, rand_cyclo(rng, span=2)), ({"B": 1}, nonzero_cyclo(rng, span=2)),
             ({"C": 1}, rand_cyclo(rng, span=2))]
        ))
    num = nonzero_mpoly(rng, names=("y", "z", "A"), max_terms=3, max_exp=1, span=2)
    return RatFunc(num, V("y") ** rng.randint(0, 1) * V("z") ** rng.randint(0, 2))


def _polynomial_case(seed):
    """(p, assignment) with a random nonempty subset of _SLOTS assigned, at
    least one slot to a polynomial value and the others to Laurent
    monomials.  Exponents reach 5 per slot, so a polynomial value enters at
    powers up to 5.  Values stay at most degree 3, so the image degrees stay
    under 64 and the lane guard and the cap are never reached."""
    rng = random.Random(seed)
    p = rand_mpoly(rng, names=_SLOTS, max_terms=4, max_exp=5)
    assigned = rng.sample(_SLOTS, rng.randint(1, len(_SLOTS)))
    assignment = {n: _laurent_value(rng) for n in assigned}
    for n in rng.sample(assigned, rng.randint(1, len(assigned))):
        assignment[n] = _polynomial_value(rng)
    return p, assignment


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.builds(_polynomial_case, st.integers(min_value=0, max_value=10 ** 9)))
# the maps whose invariance records pin a DegreeCapError witness: the
# monomial path hands over, and the term-by-term path raises
@example((family(1).relation(), {"y": parse_expression("y^40"), "z": parse_expression("z")}))
@example((family(1).relation(), {"y": parse_expression("1 / y^20"), "z": parse_expression("z^3")}))
def test_the_monomial_path_matches_term_by_term_on_polynomial_values(case):
    p, assignment = case
    values = p._values(assignment)
    fast = p._substitute_monomials(values)
    try:
        slow = p._substitute_terms(values)
    except DegreeCapError as exc:
        assert fast is None
        with pytest.raises(DegreeCapError) as err:
            p.substitute(assignment)
        assert str(err.value) == str(exc)
        return
    assert fast is not None
    assert (fast.num, fast.den) == (slow.num, slow.den)
    assert str(p.substitute(assignment)) == str(slow)


def test_a_storable_result_with_a_polynomial_value_is_answered():
    # the term-by-term path meets y^44 * (A + 1)^22 on the way and raises;
    # the monomial path moves y^44 out before it multiplies and answers
    p = parse_expression("y^22*z^22").as_poly()
    assignment = {"y": parse_expression("y^2"), "z": parse_expression("(A+1)/y^2")}
    with pytest.raises(DegreeCapError, match="total degree 66"):
        p._substitute_terms(p._values(assignment))
    result = p.substitute(assignment)
    expected = parse_expression("(A+1)^22")
    assert (result.num, result.den) == (expected.num, expected.den)


def test_specialize_takes_the_monomial_path():
    # an affine parameter substitution is a polynomial value over 1
    branch = family(1).branch
    values = branch._values({"A": 1, "B": -V("C") - 1, "D": 0, "E": 0, "F": 1 - V("C")})
    fast = branch._substitute_monomials(values)
    assert fast is not None and fast == branch._substitute_terms(values)


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
    # a value over a polynomial denominator; a polynomial value such as
    # y + z takes the monomial path
    y, z = V("y"), V("z")
    values = (y ** 2 + z)._values({"y": RatFunc(MPoly.const(1), y + z)})
    assert (y ** 2 + z)._substitute_monomials(values) is None


def test_a_storable_result_is_answered_by_the_monomial_path():
    # y -> 1/y^10 on y^4 is 1 / y^40, which can be stored, so the monomial
    # path answers it, with the pair the term-by-term path reaches
    y = V("y")
    value = RatFunc(MPoly.const(1), y ** 10)
    fast, slow = _both_paths(y ** 4, {"y": value})
    assert fast is not None
    assert (fast.num, fast.den) == (slow.num, slow.den) == (MPoly.const(1), y ** 40)


@pytest.mark.parametrize(
    "value,answered,text",
    [("1 / y^64", True, "z^63 / y^64"), ("w / y^64", False, "w*z^63 / y^64")],
)
def test_the_lane_guard_sits_between_127_and_128(value, answered, text):
    # on y*z^63 the largest image degrees before cancellation are 63 and 64
    # under y -> 1/y^64 (127), and 64 and 64 under y -> w/y^64 (128)
    p = parse_expression("y*z^63").as_poly()
    assignment = {"y": parse_expression(value)}
    fast, slow = _both_paths(p, assignment)
    assert (fast is not None) is answered
    result = p.substitute(assignment)
    assert (result.num, result.den) == (slow.num, slow.den)
    assert str(result) == text


@pytest.mark.parametrize(
    "poly_text,values",
    [
        ("y^2 + z", {"y": "y^40"}),
        ("y^4*z", {"y": "1 / y^20"}),
        # each term stays at degree 40, but the sum is over y^40*z^40
        ("y^4 + z^4", {"y": "1 / y^10", "z": "1 / z^10"}),
    ],
)
def test_over_the_bound_falls_back_and_raises_the_cap_error(poly_text, values):
    # the result's numerator or denominator is over the cap, so it cannot be
    # stored; the term-by-term path raises its own error
    p = parse_expression(poly_text).as_poly()
    assignment = {name: parse_expression(text) for name, text in values.items()}
    assert p._substitute_monomials(p._values(assignment)) is None
    with pytest.raises(DegreeCapError) as err:
        p.substitute(assignment)
    assert str(err.value) == "product term of total degree 80 exceeds cap 64"


def test_a_cap_error_of_the_monomial_path_hands_over():
    # both paths build P^4 and Q^4, 330 terms each; the monomial path then
    # multiplies them (SizeCapError), the term-by-term path multiplies
    # w^56 * P^4 by Q^4 (DegreeCapError), and the error is the latter's
    p = parse_expression("w^56*y^4*z^4").as_poly()
    squares = " + ".join(f"{n}^2" for n in ("A", "B", "C", "D", "E", "F", "alpha", "Y"))
    assignment = {"y": parse_expression(squares), "z": parse_expression(squares)}
    values = p._values(assignment)
    assert p._substitute_monomials(values) is None
    with pytest.raises(DegreeCapError) as err:
        p.substitute(assignment)
    assert str(err.value) == "product term of total degree 72 exceeds cap 64"


def test_term_by_term_builds_each_power_from_the_one_before(monkeypatch):
    # y + y^2 + ... + y^d at a value Q over a two-term denominator: the
    # powers Q, ..., Q^d cost one product by Q each, not k products for the k-th
    d = 6
    p = MPoly.sum_monomials(({"y": k}, 1) for k in range(1, d + 1))
    value = RatFunc.var("y") / (RatFunc.var("y") + RatFunc.var("z"))
    expected = sum((value ** k for k in range(1, d + 1)), RatFunc.zero())
    mul = RatFunc.__mul__
    by_value = []

    def counting(self, other):
        if other is value:
            by_value.append(self)
        return mul(self, other)

    monkeypatch.setattr(RatFunc, "__mul__", counting)
    result = p.substitute({"y": value})
    assert len(by_value) == d
    assert result == expected


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
    image = (y ** 2).substitute({"y": r}).as_poly()
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
def test_values_refuse_attribute_assignment(name):
    value = _ROUND_TRIP[name]()
    for attr in ("_q", "terms", "num", "den"):
        with pytest.raises(AttributeError, match="instances are immutable"):
            setattr(value, attr, None)
    assert value == _ROUND_TRIP[name]()


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


# -- the packed keys against a tuple-keyed reference ---------------------------
#
# MPoly keeps each exponent vector packed into one int.  The reference below
# keeps plain exponent tuples, as dicts tuple -> Cyclo, and does every
# operation slot by slot; a polynomial enters MPoly only through
# MPoly.monomial and leaves only through term_items.

_DIFF_NAMES = ("w", "y", "Z", "A", "alpha")  # the top lane, middle lanes, the bottom lane
_MOVE_NAMES = ("y", "Z", "alpha")
_ZERO_EXP = (0,) * len(VARIABLES)


def _exponent_tuple(names, ks):
    e = [0] * len(VARIABLES)
    for name, k in zip(names, ks):
        e[slot(name)] = k
    return tuple(e)


def _clean(terms):
    return {e: c for e, c in terms.items() if not c.is_zero()}


def _ref(p):
    return dict(p.term_items())


def _same(p, terms):
    """p holds exactly ``terms``, both read out and as built from them."""
    return _ref(p) == terms and p == _from_ref(terms)


def _from_ref(terms):
    p = MPoly.zero()
    for e, c in terms.items():
        p = p + MPoly.monomial(dict(zip(VARIABLES, e)), c)
    return p


def _grlex(e):
    return (sum(e), e)


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, ZERO) + c
    return _clean(out)


def _ref_neg(a):
    return {e: -c for e, c in a.items()}


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, ZERO) + c1 * c2
    return _clean(out)


def _ref_scale(a, c):
    return _clean({e: v * c for e, v in a.items()})


def _ref_lead(a):
    e = max(a, key=_grlex)
    return e, a[e]


def _ref_content(a):
    return tuple(map(min, zip(*a)))


def _ref_divide(p, q):
    """(quotient, None), or (None, the remainder whose lead q's lead misses)."""
    qe, qc = _ref_lead(q)
    quot, rem = {}, p
    while rem:
        e, c = _ref_lead(rem)
        d = tuple(x - y for x, y in zip(e, qe))
        if min(d) < 0:
            return None, rem
        quot[d] = c / qc
        rem = _ref_add(rem, _ref_mul({d: -(c / qc)}, q))
    return quot, None


def _ref_pair(num, den):
    """The num/den pair RatFunc keeps, computed on tuples."""
    if not num:
        return {}, {_ZERO_EXP: ONE}
    shift = tuple(map(min, _ref_content(num), _ref_content(den)))

    def down(a):
        return {tuple(x - s for x, s in zip(e, shift)): c for e, c in a.items()}

    inv = _ref_lead(down(den))[1].inverse()
    num, den = _ref_scale(down(num), inv), _ref_scale(down(den), inv)
    if len(den) == 1:
        return num, den
    quot, _ = _ref_divide(num, den)
    if quot is not None:
        return quot, {_ZERO_EXP: ONE}
    cofactor, _ = _ref_divide(den, num)
    if cofactor is not None:
        inv = _ref_lead(cofactor)[1].inverse()
        return {_ZERO_EXP: inv}, _ref_scale(cofactor, inv)
    return num, den


def _ref_str(a):
    if not a:
        return "0"
    parts = []
    for e in sorted(a, key=_grlex, reverse=True):
        factors = [n if k == 1 else f"{n}^{k}" for n, k in zip(VARIABLES, e) if k]
        cs = str(a[e])
        if not factors:
            parts.append(f"({cs})" if " " in cs else cs)
            continue
        if cs in ("1", "-1"):
            cs = cs[:-1]
        elif "+" in cs[1:] or "-" in cs[1:] or " " in cs:
            cs = f"({cs})*"
        else:
            cs += "*"
        parts.append(cs + "*".join(factors))
    return parts[0] + "".join(
        f" - {p[1:]}" if p.startswith("-") else f" + {p}" for p in parts[1:]
    )


def _ref_substitute(a, spec):
    """The pair of substituting name -> c * x^v (v signed) into a."""
    out = {}
    for e, c in a.items():
        image = list(e)
        for name, (v, cv) in spec.items():
            k = e[slot(name)]
            if not k:
                continue
            image[slot(name)] -= k
            for target, d in zip(_MOVE_NAMES, v):
                image[slot(target)] += k * d
            c = c * cv ** k
        key = tuple(image)
        out[key] = out.get(key, ZERO) + c
    out = _clean(out)
    if not out:
        return {}, {_ZERO_EXP: ONE}
    den = tuple(max(0, -m) for m in map(min, zip(*out)))
    return {tuple(x + d for x, d in zip(e, den)): c for e, c in out.items()}, {den: ONE}


_coords = st.sampled_from((-2, -1, 0, 1, 3, Fraction(1, 2), Fraction(-2, 3)))
_nonzero_cyclos = st.builds(Cyclo, _coords, _coords, _coords, _coords).filter(
    lambda c: not c.is_zero()
)


def _ref_exponents(max_exp):
    return st.tuples(*[st.integers(0, max_exp)] * len(_DIFF_NAMES)).map(
        lambda ks: _exponent_tuple(_DIFF_NAMES, ks)
    )


def _ref_polys(max_exp, min_size=0):
    return st.dictionaries(
        _ref_exponents(max_exp), _nonzero_cyclos, min_size=min_size, max_size=4
    )


# total degree at most 15, so two-factor products stay under the cap
_refs = _ref_polys(3)
_nonzero_refs = _ref_polys(3, min_size=1)


@settings(max_examples=100, deadline=None)
@given(_refs, _refs)
def test_packed_ring_operations_match_the_tuple_reference(a, b):
    p, q = _from_ref(a), _from_ref(b)
    assert _same(p, a)
    assert p.support() == tuple(sorted(a, key=_grlex, reverse=True))
    assert _same(p * q, _ref_mul(a, b))
    assert _same(p + q, _ref_add(a, b))
    assert _same(p - q, _ref_add(a, _ref_neg(b)))
    assert _same(-p, _ref_neg(a))
    assert str(p) == _ref_str(a)
    assert str(p * q) == _ref_str(_ref_mul(a, b))
    if a:
        assert p.term_items()[0] == _ref_lead(a)
        # over x^top, top the slotwise maximum, the content of p cancels
        top = tuple(map(max, zip(*a)))
        r = RatFunc(p, _from_ref({top: ONE}))
        content = _ref_content(a)
        assert _same(r.den, {tuple(t - m for t, m in zip(top, content)): ONE})
        assert _same(r.num, {tuple(x - m for x, m in zip(e, content)): c for e, c in a.items()})


@settings(max_examples=100, deadline=None)
@given(_refs, _nonzero_refs, st.one_of(st.just({}), _refs))
def test_packed_exact_divide_matches_the_tuple_reference(a, b, bump):
    # a * b is divisible by b; adding a nonzero bump usually is not
    num = _ref_add(_ref_mul(a, b), bump)
    quot, rem = _ref_divide(num, b)
    if quot is not None:
        assert _same(exact_divide(_from_ref(num), _from_ref(b)), quot)
    else:
        with pytest.raises(IndivisibleError) as err:
            exact_divide(_from_ref(num), _from_ref(b))
        assert _same(err.value.remainder, rem)


@settings(max_examples=100, deadline=None)
@given(_refs, _nonzero_refs, _nonzero_refs)
def test_packed_ratfunc_pair_matches_the_tuple_reference(a, b, common):
    # a common factor gives the content shift and the divisions work to do
    num, den = _ref_mul(a, common), _ref_mul(b, common)
    r = RatFunc(_from_ref(num), _from_ref(den))
    ref_num, ref_den = _ref_pair(num, den)
    assert _same(r.num, ref_num) and _same(r.den, ref_den)
    assert str(r.num) == _ref_str(ref_num)


_laurent_specs = st.dictionaries(
    st.sampled_from(_DIFF_NAMES),
    st.tuples(st.tuples(*[st.integers(-1, 1)] * len(_MOVE_NAMES)), _nonzero_cyclos),
    max_size=len(_DIFF_NAMES),
)


def _laurent_assignment(spec):
    """The assignment name -> c * x^v of a _laurent_specs example."""
    assignment = {}
    for name, (v, cv) in spec.items():
        up = _exponent_tuple(_MOVE_NAMES, [max(d, 0) for d in v])
        down = _exponent_tuple(_MOVE_NAMES, [max(-d, 0) for d in v])
        assignment[name] = RatFunc(
            MPoly.monomial(dict(zip(VARIABLES, up)), cv),
            MPoly.monomial(dict(zip(VARIABLES, down))),
        )
    return assignment


@settings(max_examples=100, deadline=None)
@given(_ref_polys(1), _laurent_specs)
def test_packed_substitution_paths_match_the_tuple_reference(a, spec):
    # name -> c * x^v with v in {-1, 0, 1} on y, Z, alpha: negative Laurent
    # exponents on the packed keys, far inside the lane guard and the cap
    assignment = _laurent_assignment(spec)
    p = _from_ref(a)
    ref_num, ref_den = _ref_substitute(a, spec)
    fast, slow = _both_paths(p, assignment)
    assert fast is not None
    for r in (fast, slow):
        assert _same(r.num, ref_num) and _same(r.den, ref_den)
        assert str(r.num) == _ref_str(ref_num)
        assert str(r.den) == _ref_str(ref_den)


# Up to the cap, the monomial path answers everywhere except at its two
# hand-overs: the lane guard, num_top + den_top over 127, and a result P / x^M
# whose P or x^M is over the cap.  Where it answers, num / den is checked at
# a point against p evaluated at the values there, in Cyclo arithmetic only.


def _capped(ks):
    """``ks`` with each entry lowered so that the running total stays at
    most the cap."""
    out, room = [], DEGREE_CAP
    for k in ks:
        out.append(min(k, room))
        room -= out[-1]
    return tuple(out)


def _signed_capped(vs):
    """``vs`` with its positive and its negative parts each capped."""
    up = _capped([max(v, 0) for v in vs])
    down = _capped([max(-v, 0) for v in vs])
    return tuple(u - d for u, d in zip(up, down))


_big = st.sampled_from((0, 0, 1, 2, 3, 7, 16, 31, 40, 64))
_big_refs = st.dictionaries(
    st.tuples(*[_big] * len(_DIFF_NAMES)).map(
        lambda ks: _exponent_tuple(_DIFF_NAMES, _capped(ks))
    ),
    _nonzero_cyclos, min_size=1, max_size=4,
)
_signed = st.sampled_from((-64, -40, -16, -7, -2, -1, 0, 0, 1, 2, 7, 16, 40, 64))
_big_specs = st.dictionaries(
    st.sampled_from(_DIFF_NAMES),
    st.tuples(
        st.tuples(*[_signed] * len(_MOVE_NAMES)).map(_signed_capped), _nonzero_cyclos
    ),
    max_size=3,
)
_points = st.tuples(
    *[st.sampled_from((2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5)))]
    * len(_DIFF_NAMES)
)


def _ref_tops(a, spec):
    """The largest degrees of a term's image before cancellation: of its
    numerator, |e| + sum e_i (|a_i| - 1), and of its denominator,
    sum e_i |b_i|."""
    num_top = den_top = 0
    for e in a:
        num, den = sum(e), 0
        for name, (v, _) in spec.items():
            k = e[slot(name)]
            num += k * (sum(d for d in v if d > 0) - 1)
            den += k * sum(-d for d in v if d < 0)
        num_top, den_top = max(num_top, num), max(den_top, den)
    return num_top, den_top


def _evaluate(term_items, at):
    """The sum of c * prod x_j^e_j, x_j = at[j] (a Cyclo per slot)."""
    total = ZERO
    for e, c in term_items:
        for j, k in enumerate(e):
            if k:
                c = c * at[j] ** k
        total = total + c
    return total


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_big_refs, _big_specs, _points)
# y^4*Z under y -> 1/y^20: within the guard (1 + 80), but x^M = y^80
@example(
    {_exponent_tuple(("y", "Z"), (4, 1)): ONE}, {"y": ((-20, 0, 0), ONE)}, (2,) * 5
)
# Z^40 + y^30 under y -> 1/y: (Z^40*y^30 + 1) / y^30, a numerator over the cap
@example(
    {_exponent_tuple(("Z",), (40,)): ONE, _exponent_tuple(("y",), (30,)): ONE},
    {"y": ((-1, 0, 0), ONE)}, (2,) * 5,
)
# y*Z^63 under y -> alpha/y^64: past the guard (64 + 64), but storable
@example(
    {_exponent_tuple(("y", "Z"), (1, 63)): ONE}, {"y": ((-64, 0, 1), ONE)}, (2,) * 5
)
def test_the_monomial_path_hands_over_only_at_its_two_limits(a, spec, point):
    p = _from_ref(a)
    fast = p._substitute_monomials(p._values(_laurent_assignment(spec)))
    num_top, den_top = _ref_tops(a, spec)
    ref_num, ref_den = _ref_substitute(a, spec)
    storable = max(map(sum, ref_num), default=0) <= DEGREE_CAP and sum(*ref_den) <= DEGREE_CAP
    assert (fast is not None) is (num_top + den_top <= 127 and storable)
    if fast is None:
        return
    at = [ONE] * len(VARIABLES)
    for name, x in zip(_DIFF_NAMES, point):
        at[slot(name)] = Cyclo.from_rational(x)
    # p at the values: c * x^v at the point for each assigned slot
    values = list(at)
    for name, (v, cv) in spec.items():
        value = cv
        for target, d in zip(_MOVE_NAMES, v):
            value = value * at[slot(target)] ** d
        values[slot(name)] = value
    expected = _evaluate(a.items(), values)
    assert _evaluate(fast.num.term_items(), at) == expected * _evaluate(fast.den.term_items(), at)


def test_a_slot_holds_exactly_the_cap():
    for name in ("w", "y", "alpha"):
        x = MPoly.var(name)
        top = MPoly.monomial({name: DEGREE_CAP}, 3)
        assert top.support() == (_exponent_tuple((name,), (DEGREE_CAP,)),)
        assert top.degree_in(name) == DEGREE_CAP
        assert str(top) == f"3*{name}^{DEGREE_CAP}"
        assert (x ** 32 * x ** 32).scale(3) == top
        assert exact_divide(top, x ** 63) == x.scale(3)
        with pytest.raises(IndivisibleError):
            exact_divide(x ** 63, top)
        # the content x of top + x cancels; both lanes at 64 enter the minimum
        r = RatFunc(top + x, x ** 32 * x ** 32)
        assert r.num.term_items() == (
            (_exponent_tuple((name,), (DEGREE_CAP - 1,)), Cyclo(3)),
            (_ZERO_EXP, ONE),
        )
        assert r.den.term_items() == ((_exponent_tuple((name,), (DEGREE_CAP - 1,)), ONE),)
        assert RatFunc(top, x ** 60) == RatFunc.from_poly(x ** 4 * 3)


def test_a_product_of_degree_65_is_over_the_cap():
    with pytest.raises(DegreeCapError, match="total degree 65") as err:
        MPoly.monomial({"w": 64}) * MPoly.var("alpha")
    assert str(err.value) == "product term of total degree 65 exceeds cap 64"


@pytest.mark.parametrize(
    "exponents,degree",
    [({"y": 65}, 65), ({"y": 40, "z": 25}, 65), ({"alpha": 300}, 300), ({"w": 256}, 256)],
)
def test_a_monomial_over_the_cap_is_refused(exponents, degree):
    # a lane holds at most the cap: a larger exponent would spill into the
    # next slot's bits
    with pytest.raises(DegreeCapError) as err:
        MPoly.monomial(exponents)
    assert str(err.value) == f"monomial of total degree {degree} exceeds cap 64"


def test_a_negative_monomial_exponent_is_a_value_error():
    with pytest.raises(ValueError, match="negative exponent"):
        MPoly.monomial({"y": 2, "z": -1})


# -- single-term fast paths ------------------------------------------------------
#
# A product with a single-term operand shifts the other operand's keys and
# scales its coefficients, and a RatFunc over 1 is kept as it is.  These
# compare both with the tuple reference and with the general code they
# stand in for.

_OTHER_COEFF = Cyclo(Fraction(-3, 2), 0, 1, 2)


def _schoolbook_keys(p, q):
    """The keys of p * q in the order the two-loop product first meets them."""
    return list(dict.fromkeys(e1 + e2 for e1 in p.terms for e2 in q.terms))


@pytest.mark.parametrize("coeff", [ONE, -ONE, _OTHER_COEFF], ids=["one", "minus-one", "other"])
@settings(max_examples=60, deadline=None)
@given(e=_ref_exponents(3), a=_refs)
def test_single_term_products_match_the_tuple_reference(coeff, e, a):
    m = {e: coeff}
    single, p = _from_ref(m), _from_ref(a)
    want = _ref_mul(m, a)
    for product, order in (
        (single * p, _schoolbook_keys(single, p)),
        (p * single, _schoolbook_keys(p, single)),
    ):
        assert _same(product, want)
        # no term cancels, so every key the loop meets stays, in its order
        assert list(product.terms) == order
        assert str(product) == _ref_str(want)


def test_caps_are_checked_before_the_single_term_path():
    y, z = V("y"), V("z")
    top = MPoly.monomial({"y": 60}, 3)
    for a, b in ((top, y ** 5 + z), (y ** 5 + z, top), (top, y ** 5), (top, z ** 5)):
        with pytest.raises(DegreeCapError, match="total degree 65 exceeds cap 64"):
            a * b
    # MAX_TERM_PAIRS + 1 distinct monomials: k's base-7 digits as exponents
    names = ("y", "z", "Y", "Z", "A", "B")
    terms = {}
    for k in range(MAX_TERM_PAIRS + 1):
        exps = {name: k // 7 ** d % 7 for d, name in enumerate(names)}
        terms.update(MPoly.monomial(exps).terms)
    big = MPoly(terms)
    n = MAX_TERM_PAIRS + 1
    for single in (MPoly.const(1), V("w").scale(_OTHER_COEFF)):
        with pytest.raises(SizeCapError, match=f"product of 1 by {n} terms exceeds cap"):
            single * big
        with pytest.raises(SizeCapError, match=f"product of {n} by 1 terms exceeds cap"):
            big * single


@settings(max_examples=100, deadline=None)
@given(_refs)
def test_ratfunc_over_one_matches_the_tuple_reference(a):
    r = RatFunc(_from_ref(a), MPoly.const(1))
    ref_num, ref_den = _ref_pair(a, {_ZERO_EXP: ONE})
    assert _same(r.num, ref_num) and _same(r.den, ref_den)


def _division_path(r, assignment):
    """What RatFunc.substitute computes for any denominator."""
    return r.num.substitute(assignment) / r.den.substitute(assignment)


def _same_pair(r, s):
    """The same num/den pair, term order included."""
    return all(
        list(x.terms.items()) == list(y.terms.items())
        for x, y in ((r.num, s.num), (r.den, s.den))
    )


@settings(max_examples=100, deadline=None)
@given(_ref_polys(1), _laurent_specs)
def test_substitute_over_one_matches_the_division_path(a, spec):
    r = RatFunc.from_poly(_from_ref(a))
    assignment = _laurent_assignment(spec)
    assert _same_pair(r.substitute(assignment), _division_path(r, assignment))


@pytest.mark.parametrize(
    "text, values",
    [
        ("y^2*z + 3*z^4 - y", {"y": "y + z", "z": "1/(y - z)"}),
        ("A*y^4 + (1 + i)*z^2", {"A": "A + B", "y": "y/z"}),
        ("w*y + w^2", {"w": "w + y"}),
        ("y^3 - z^3", {"y": "z", "z": "y"}),
    ],
)
def test_substitute_over_one_matches_the_division_path_on_any_values(text, values):
    r = parse_expression(text)
    assert r.den == MPoly.const(1)
    assignment = {k: parse_expression(v) for k, v in values.items()}
    assert _same_pair(r.substitute(assignment), _division_path(r, assignment))


# -- RatFunc fast paths against the general formulas ------------------------------
#
# RatFunc skips work whose result is known: subtracting an identical pair
# and negating a simplified pair.  The helpers below are the general formulas
# each fast path stands in for, written with MPoly arithmetic and the
# RatFunc constructor.  The results must be the same pairs, term order
# included.


def _general_neg(r):
    return RatFunc(-r.num, r.den)


def _general_sub(r, s):
    t = _general_neg(s)
    if r.den == t.den:
        return RatFunc(r.num + t.num, r.den)
    return RatFunc(r.num * t.den + t.num * r.den, r.den * t.den)


_single_refs = _ref_polys(3, min_size=1).map(lambda a: dict([next(iter(a.items()))]))
_dens = st.one_of(_single_refs, _nonzero_refs)
_ratfuncs = st.builds(
    lambda num, den: RatFunc(_from_ref(num), _from_ref(den)), _refs, _dens
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_ratfuncs, _ratfuncs)
def test_ratfunc_fast_paths_match_the_general_formulas(r, s):
    assert _same_pair(-r, _general_neg(r))
    zero = RatFunc.zero()
    for a, b in ((r, s), (r, zero), (zero, r)):
        assert _same_pair(a - b, _general_sub(a, b))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_refs, _dens)
def test_subtracting_an_identical_pair_matches_the_general_path(num, den):
    r = RatFunc(_from_ref(num), _from_ref(den))
    twin = RatFunc(_from_ref(num), _from_ref(den))
    assert twin is not r and _same_pair(twin, r)
    for a, b in ((r, twin), (r, r)):
        assert _same_pair(a - b, _general_sub(a, b))
        assert (a - b).is_zero()


@pytest.mark.parametrize(
    "left, right",
    [
        ("y / z", "y / w"),  # the same numerator over another denominator
        ("y / z", "w / z"),  # another numerator over the same denominator
        ("1 / (y + z)", "1 / (y - z)"),
        ("3 / (y^2 + z)", "-3 / (y^2 + z)"),  # a pair from the cofactor branch
    ],
)
def test_fast_paths_on_pairs_that_differ(left, right):
    r, s = parse_expression(left), parse_expression(right)
    for a, b in ((r, s), (s, r)):
        assert _same_pair(-a, _general_neg(a))
        assert _same_pair(a - b, _general_sub(a, b))
        assert not (a - b).is_zero()


# -- single-term RatFunc arithmetic and MPoly powers against the general bodies ---
#
# A product, inverse or power of RatFuncs that are one term over one term is
# built from the keys, and MPoly powers a polynomial as the chain
# P^k = P^(k-1) * P.  The bodies they replaced are in _helpers.  The results
# must be the same pairs, term order included, or the same exception text.

_CAP_NAMES = ("w", "y", "alpha")  # the top, a middle and the bottom lane


def _capped_exponents(top):
    """Exponents of w, y and alpha of total degree at most ``top``."""
    return st.integers(0, top).flatmap(
        lambda t: st.tuples(st.integers(0, t), st.integers(0, t)).map(
            lambda ab: dict(zip(_CAP_NAMES, (min(ab), max(ab) - min(ab), t - max(ab))))
        )
    )


_single_ratfuncs = st.builds(
    lambda e, f, c, d: RatFunc(MPoly.monomial(e, c), MPoly.monomial(f, d)),
    _capped_exponents(DEGREE_CAP), _capped_exponents(DEGREE_CAP),
    _nonzero_cyclos, st.sampled_from((ONE, Cyclo(2), SQRT_M1)),
)
_operands = st.one_of(_single_ratfuncs, _ratfuncs, st.just(RatFunc.zero()))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_operands, _operands, st.integers(-8, 8))
# the parser's cap edges: products, quotients and powers just over or at the
# degree cap, in the numerator and in the denominator, and the zero divisors
@example(parse_expression("y^40"), parse_expression("y^25"), 1)
@example(parse_expression("y^40"), parse_expression("y^24"), 2)
@example(parse_expression("1/y^40"), parse_expression("1/z^25"), -1)
@example(parse_expression("y^2/z"), parse_expression("y/z^2"), 33)
@example(parse_expression("y^2/z"), parse_expression("y/z^2"), -33)
@example(parse_expression("y/z^2"), parse_expression("z"), -32)
@example(RatFunc.zero(), parse_expression("y^64"), 64)
@example(RatFunc.zero(), parse_expression("w"), -2)
@example(RatFunc.zero(), RatFunc.const(1), 0)
@example(parse_expression("i*w/(y^2*z^3)"), parse_expression("(y^2*z^3)^8"), -8)
def test_single_term_ratfunc_arithmetic_matches_the_general_bodies(r, s, n):
    assert outcome(RatFunc.__mul__, r, s) == outcome(general_ratfunc_mul, r, s)
    assert outcome(RatFunc.__mul__, s, r) == outcome(general_ratfunc_mul, s, r)
    for a in (r, s):
        assert outcome(RatFunc.inverse, a) == outcome(general_ratfunc_inverse, a)
        assert outcome(pow, a, n) == outcome(general_ratfunc_pow, a, n)


_mpoly_operands = st.one_of(
    st.builds(MPoly.monomial, _capped_exponents(DEGREE_CAP), _nonzero_cyclos),
    _refs.map(_from_ref),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_mpoly_operands, st.integers(0, 8))
@example(MPoly.monomial({"y": 8}), 8)
@example(MPoly.monomial({"y": 13}), 5)
@example(V("y") + V("z"), 64)
@example(V("y") + V("z"), 65)
@example(MPoly.zero(), 0)
@example(MPoly.zero(), 3)
def test_mpoly_power_matches_square_and_multiply(p, n):
    # the same terms; over the cap, a DegreeCapError from both, whose degree
    # may differ (see the next test)
    try:
        want = square_and_multiply_mpoly_pow(p, n)
    except DegreeCapError:
        with pytest.raises(DegreeCapError):
            p ** n
        return
    got = p ** n
    assert got == want and str(got) == str(want)


def test_an_mpoly_power_over_the_cap_names_the_first_chain_product():
    # square-and-multiply squares y^40 first; the chain stops at y^60 * y^10
    y10 = MPoly.monomial({"y": 10})
    with pytest.raises(DegreeCapError, match="total degree 80 exceeds"):
        square_and_multiply_mpoly_pow(y10, 8)
    with pytest.raises(DegreeCapError, match="total degree 70 exceeds"):
        y10 ** 8


def _products_by(monkeypatch, factor):
    """The left operand of each MPoly product by ``factor`` from now on."""
    mul = MPoly.__mul__
    lefts = []

    def counting(self, other):
        if other is factor:
            lefts.append(self)
        return mul(self, other)

    monkeypatch.setattr(MPoly, "__mul__", counting)
    return lefts


def test_an_mpoly_power_multiplies_by_the_base_each_step(monkeypatch):
    p = V("y") + V("z").scale(SQRT_M1) - 1
    want = square_and_multiply_mpoly_pow(p, 6)
    lefts = _products_by(monkeypatch, p)
    assert p ** 6 == want
    assert [len(left.terms) for left in lefts] == [1, 3, 6, 10, 15, 21]


def test_the_monomial_path_builds_each_power_from_the_one_before(monkeypatch):
    # y + y^2 + ... + y^d at y -> y + z: P^2, ..., P^d cost one product by P
    # each, as in the term-by-term path
    d = 6
    p = MPoly.sum_monomials(({"y": k}, 1) for k in range(1, d + 1))
    value = parse_expression("y + z")
    expected = p._substitute_terms(p._values({"y": value}))
    lefts = _products_by(monkeypatch, value.num)
    fast = p._substitute_monomials(p._values({"y": value}))
    assert [len(left.terms) for left in lefts] == list(range(2, d + 1))
    assert (fast.num, fast.den) == (expected.num, expected.den)


# -- equality of pairs over single-term denominators ------------------------------


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_ratfuncs, _ratfuncs, _nonzero_cyclos)
def test_ratfunc_equality_matches_cross_multiplication(r, s, c):
    # pairs over single-term denominators are compared as pairs
    twin = RatFunc(r.num * V("y") ** 2 * c, r.den * V("y") ** 2 * c)
    for a, b in ((r, s), (s, r), (r, twin), (twin, r)):
        assert (a == b) == (a.num * b.den == b.num * a.den)
    assert r == twin


def test_equality_at_the_cap_multiplies_nothing():
    # cross-multiplying either pair with y would build y^65
    for text in ("(1 + y) / y^64", "1 / y^64"):
        r = parse_expression(text)
        assert r != RatFunc.var("y")
        assert r == parse_expression(text)


# -- summing monomials in one dict ------------------------------------------------


_ENTRY_EXPONENTS = ({}, {"y": 1}, {"y": 1, "A": 1}, {"z": 2}, {"y": 64})


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(_ENTRY_EXPONENTS), st.sampled_from((-2, -1, 0, 1, 2))
), max_size=8))
def test_sum_monomials_matches_a_running_sum(entries):
    running = MPoly.zero()
    for exponents, coeff in entries:
        running = running + MPoly.monomial(exponents, coeff)
    summed = MPoly.sum_monomials(entries)
    assert list(summed.terms.items()) == list(running.terms.items())


def test_height_is_the_largest_numerator_or_denominator():
    p = MPoly.sum_monomials([({"y": 1}, Fraction(-7, 3)), ({"z": 1}, Fraction(2, 11)), ({}, 5)])
    assert p.height() == 11
    # a running sum reads only its coefficients at the terms it adds:
    # -7/3 + 1 at y, then w, then nothing left at w
    running = RunningSum(p)
    assert running.add(V("y")) == 4
    assert running.add(V("w")) == 1
    assert running.add(V("w"), negate=True) == 0
    assert MPoly.zero().height() == 0
    # 13*z is made monic, so the numerator's coefficients are divided by 13
    assert RatFunc(p, V("z").scale(13)).height() == 143
    assert Cyclo(0, -9, Fraction(1, 2)).height() == 18


@pytest.mark.parametrize("exponents, coeff, text", [
    ({"w": 1, "y": -2, "z": -3}, SQRT_M1, "i*w/(y^2*z^3)"),
    ({"W": 0, "Z": -1}, 1, "1/Z"),
    ({"y": 64, "z": -64}, Fraction(3, 2), "3/2*y^64/z^64"),
    ({}, -1, "-1"),
    ({"y": 2}, 0, "0"),
])
def test_a_laurent_monomial_is_the_pair_its_text_parses_to(exponents, coeff, text):
    assert outcome(RatFunc.monomial, exponents, coeff) == outcome(parse_expression, text)


def test_a_laurent_monomial_past_the_cap_is_refused_on_either_side():
    for exponents in ({"y": 64, "z": 1}, {"y": -1, "z": -64}):
        with pytest.raises(DegreeCapError, match="total degree 65"):
            RatFunc.monomial(exponents)


def test_sum_monomials_refuses_what_monomial_refuses():
    with pytest.raises(DegreeCapError, match="total degree 65"):
        MPoly.sum_monomials([({"y": 1}, 1), ({"y": 64, "z": 1}, 1)])
    with pytest.raises(ValueError, match="negative exponent"):
        MPoly.sum_monomials([({"y": -1}, 1)])


def test_only_poly_reads_the_packed_terms():
    # poly.py owns the packed key layout; every other module goes through
    # its constructors and read-outs, never an MPoly's .terms dict
    package = Path(enricert.__file__).parent
    reads = []
    for path in sorted(package.glob("*.py")):
        if path.name == "poly.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        reads += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "terms"
        ]
    assert reads == []


def test_no_module_imports_a_private_name_of_a_sibling():
    # a module reaches another's internals only through its public names,
    # so `from .poly import _wrap` in maps.py would hand it the key layout
    package = Path(enricert.__file__).parent
    imports = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imports += [
            f"{path.name}:{node.lineno}: {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").startswith("enricert"))
            for alias in node.names
            # a dunder such as __version__ is public
            if alias.name.startswith("_") and not alias.name.endswith("__")
        ]
    assert imports == []


def _engine_modules():
    """The parsed engine modules, without the package's re-exports."""
    package = Path(enricert.__file__).parent
    return [
        (path.name, ast.parse(path.read_text(encoding="utf-8"), str(path)))
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    ]


def _references(tree):
    """(name, line) of every name, attribute and imported name in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)


def _callers():
    """(place, tree) of every file that may reach the engine's public names:
    the engine modules, the demos and the benchmark."""
    root = Path(__file__).resolve().parents[1]
    others = [
        (f"{folder}/{path.name}", ast.parse(path.read_text(encoding="utf-8"), str(path)))
        for folder in ("demos", "perfbench")
        for path in sorted((root / folder).glob("*.py"))
    ]
    return [(f"engine/{name}", tree) for name, tree in _engine_modules()] + others


def _without_caller(definitions, references):
    """The (module, node, shown) definitions that no reference (place, name,
    line) names outside the definition's own lines."""
    return [
        f"{name}: {shown}"
        for name, node, shown in definitions
        if not any(
            ref == node.name
            and not (where == f"engine/{name}" and node.lineno <= line <= node.end_lineno)
            for where, ref, line in references
        )
    ]


def test_every_public_engine_function_and_class_has_a_caller():
    # a public name only the tests reach is dead API: an engine module, a
    # demo or the benchmark must name it outside its own definition
    references = [
        (where, ref, line) for where, tree in _callers() for ref, line in _references(tree)
    ]
    definitions = [
        (name, node, node.name)
        for name, tree in _engine_modules()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert _without_caller(definitions, references) == []


def test_every_public_method_of_a_public_engine_class_has_a_caller():
    # the same rule for the methods and properties of a public class: an
    # engine module, a demo or the benchmark must read it as an attribute
    # outside its own definition; dunders are exempt
    references = [
        (where, node.attr, node.lineno)
        for where, tree in _callers()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    ]
    definitions = [
        (name, node, f"{cls.name}.{node.name}")
        for name, tree in _engine_modules()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert _without_caller(definitions, references) == []


def test_no_engine_module_imports_a_name_it_never_uses():
    unused = []
    for name, tree in _engine_modules():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [
                    f"{name}:{node.lineno}: {alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name).split(".")[0] not in used
                ]
    assert unused == []


def test_only_the_cap_owners_import_the_caps():
    # a short path decides from the keys it forms, not from a copy of
    # another path's products, so only poly.py, map_order's power rule in
    # maps.py and the input exponent bound in parsing.py read the caps
    caps = ("DEGREE_CAP", "MAX_TERM_PAIRS")
    package = Path(enricert.__file__).parent
    readers = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ImportFrom)
                and any(alias.name in caps for alias in node.names)
                or isinstance(node, ast.Attribute) and node.attr in caps
            ):
                readers.add(path.name)
    assert readers == {"maps.py", "parsing.py"}


def _literal(node):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def test_only_cover_spells_the_surface_kinds():
    # cover.py owns the kind names and coordinate triples; every other
    # module reads its constants
    package = Path(enricert.__file__).parent
    spelled = ("enriques_horikawa", "k3_cover", ("w", "y", "z"), ("W", "Y", "Z"))
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "cover.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Constant, ast.Tuple)) and _literal(node) in spelled
        ]
    assert found == []


# -- the Laurent difference against the RatFunc arithmetic --------------------------
#
# laurent_difference(t, p, q) sums t * p - q in one pass when t is one term
# over one term and q has a monomial denominator.  It returns None exactly
# where the common denominator or a key of the sum before cancellation is
# over the cap, and otherwise the numerator of t * RatFunc.from_poly(p) - q:
# where that arithmetic passes a cap on the way, the numerator it returns
# under a higher cap.


def _difference_outcome(t, p, q):
    try:
        return (t * RatFunc.from_poly(p) - q).num
    except (DegreeCapError, SizeCapError) as exc:
        return type(exc), str(exc)


def _forms_a_key_over_the_cap(t, p, q):
    """Whether x^L, L the slotwise maximum of the denominators d of t and M
    of q, or a key of (c * x^(n + L - d) * p - x^(L - M) * Q) / x^L before
    cancellation has a total degree over DEGREE_CAP, in exponent tuples."""
    (((n, _),), ((d, _),), ((m, _),)) = (
        t.num.term_items(), t.den.term_items(), q.den.term_items(),
    )
    lcm = tuple(map(max, d, m))
    keys = [tuple(map(sum, zip(e, n, lcm))) for e in p.support()]
    keys = [tuple(k - i for k, i in zip(key, d)) for key in keys]
    keys += [tuple(f + k - i for f, k, i in zip(e, lcm, m)) for e in q.num.support()]
    return any(sum(key) > DEGREE_CAP for key in [lcm, *keys])


P = parse_expression


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_operands, _mpoly_operands, _operands)
# top degree of t * p at the cap, and one past it
@example(P("y^60"), P("z^4").num, P("z^4"))
@example(P("y^61"), P("z^4").num, P("z^4"))
# the common denominator at the cap, and one past it
@example(P("1 / y^62"), P("z^2").num, P("1 / z^2"))
@example(P("1 / y^63"), P("z^2").num, P("1 / z^2"))
# the general arithmetic's product of the denominators, y^65, is over the
# cap, and the common denominator y^42 is not
@example(P("1 / y^23"), P("1").num, P("1 / y^42"))
# the difference cancels, to zero or down to a monomial content
@example(P("i / y^2"), P("y^2 * z").num, P("i * z"))
@example(P("y / z"), P("y + z").num, P("y^2 / z"))
def test_laurent_difference_matches_the_ratfunc_arithmetic(t, p, q):
    fast = laurent_difference(t, p, q)
    shaped = len(t.num.terms) == len(t.den.terms) == len(q.den.terms) == 1
    assert (fast is None) == (not shaped or _forms_a_key_over_the_cap(t, p, q))
    if fast is not None:
        general = _difference_outcome(t, p, q)
        if not isinstance(general, MPoly):
            # the sum multiplies nothing, so it answers where the general
            # arithmetic passes a cap on the way
            with raised_degree_cap():
                general = _difference_outcome(t, p, q)
        assert isinstance(general, MPoly)
        assert fast.terms == general.terms
        assert str(fast) == str(general)


def test_laurent_difference_applies_at_the_cap_and_hands_over_past_it():
    assert laurent_difference(P("y^60"), P("z^4").num, P("z^4")) is not None
    assert laurent_difference(P("y^61"), P("z^4").num, P("z^4")) is None
    assert laurent_difference(P("1 / y^62"), P("z^2").num, P("1 / z^2")) is not None
    assert laurent_difference(P("1 / y^63"), P("z^2").num, P("1 / z^2")) is None
    # shapes it does not take: a two-term t, a non-monomial denominator
    assert laurent_difference(P("y + z"), P("z").num, P("z")) is None
    assert laurent_difference(P("y"), P("z").num, P("1 / (y + z)")) is None


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_mpoly_operands, _mpoly_operands)
def test_mpoly_subtraction_is_adding_the_negation(p, q):
    # the terms and term order of p + (-q): p's keys, then q's new ones
    assert list((p - q).terms.items()) == list((p + (-q)).terms.items())
    assert list((1 - q).terms.items()) == list((MPoly.const(1) + (-q)).terms.items())


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_mpoly_operands)
@example(MPoly.monomial({"A": 64}))
@example(MPoly.monomial({"F": 32, "alpha": 32}))
@example(MPoly.monomial({"w": 30, "Z": 30, "A": 1}))
def test_parameter_degree_sums_the_parameter_slots(p):
    slots = [slot(name) for name in sorted(PARAMETERS)]
    want = max((sum(e[i] for i in slots) for e in p.support()), default=0)
    assert p.parameter_degree() == want
