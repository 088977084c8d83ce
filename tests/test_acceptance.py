"""Acceptance gate: one test per headline claim, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines; every check is exact, and the two timed blocks assert
their own budgets.
"""

import random
import time
from pathlib import Path

import enricert
from enricert.certificate import verify_all
from enricert.classify import RULE_STATEMENTS, admissible_pairs, allowed_orders
from enricert.cover import (
    epsilon_fixed_point_free,
    family,
    k3_cover,
    specialization_one_param,
    specialization_to_family2,
    specialize,
)
from enricert.field import Cyclo, ONE, SQRT_M1
from enricert.forms import bitwoform_pullback_ratio, index_of
from enricert.lattices import (
    FixedCurveData,
    holomorphic_lefschetz_case_a,
    holomorphic_lefschetz_case_b,
    hyperbolic_plane,
    isometries_with_trace,
    moduli_dimension,
)
from enricert.maps import (
    DIRECT,
    Mobius,
    QAut,
    SWAP,
    check_equation_invariance,
    compose,
    family_automorphism,
    inv_both,
    k4_normal_form_check,
    map_order,
    maps_equal,
    neg_both,
    qaut_fixed_points,
    swap_root,
)
from enricert.moduli import (
    check_parameter_action,
    diagonal_base_scaling,
    homothety,
    moduli_number,
)
from enricert.poly import (
    MPoly,
    RatFunc,
    exact_divide,
    jacobian_det2,
)

from _helpers import (
    bis_condition,
    nonzero_cyclo,
    nonzero_mpoly,
    rand_cyclo,
    rand_monomial_plane_map,
    rand_mpoly,
    rand_rational_mobius,
    semisimple_mobius,
)

GOLDEN = Path(enricert.__file__).parent / "fixtures" / "golden_certificate.json"

I = SQRT_M1


def _criterion(n, description, body):
    try:
        detail = body()
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL - {description}")
        raise
    line = f"ACCEPTANCE {n}: PASS - {description}"
    if detail:
        line += f" [{detail}]"
    print(line)


def test_criterion_01_equation_invariance():
    def body():
        start = time.perf_counter()
        for k in (1, 2, 3):
            res = check_equation_invariance(family(k), family_automorphism(k))
            assert res.holds, f"family {k} not preserved"
            assert res.witness_even.is_zero() and res.witness_odd.is_zero()
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"invariance took {elapsed:.2f}s"
        return f"{elapsed:.2f}s"

    _criterion(1, "all three defining equations are preserved symbolically", body)


def test_criterion_02_orders_and_indices():
    def body():
        orders = [map_order(family_automorphism(k)) for k in (1, 2, 3)]
        assert orders == [4, 8, 8]
        ratios = [
            bitwoform_pullback_ratio(
                family(k), family_automorphism(k),
                check_equation_invariance(family(k), family_automorphism(k)),
            )
            for k in (1, 2, 3)
        ]
        assert ratios[0] == -ONE and ratios[1] == -I and ratios[2] == -ONE
        indices = [index_of(r) for r in ratios]
        assert indices == [2, 4, 2]
        pairs = sorted(zip(orders, indices))
        assert pairs == [(4, 2), (8, 2), (8, 4)]
        return "pairs (4,2), (8,4), (8,2) with ratio witnesses -1, -i, -1"

    _criterion(2, "orders 4, 8, 8 and indices 2, 4, 2", body)


def test_criterion_03_square_relation():
    def body():
        s1, s2 = family_automorphism(1), family_automorphism(2)
        fam = family(2)
        assert maps_equal(compose(s2, s2), s1)
        r2 = bitwoform_pullback_ratio(fam, s2, check_equation_invariance(fam, s2))
        square = compose(s2, s2)
        r_square = bitwoform_pullback_ratio(
            fam, square, check_equation_invariance(fam, square)
        )
        assert r2 == -I and r_square == -ONE
        assert r2 * r2 == r_square

    _criterion(3, "the order-8 map squares to the order-4 map and (-i)^2 = -1", body)


def test_criterion_04_specializations():
    def body():
        assert specialize(family(1), specialization_to_family2()) == family(2)
        narrow = specialize(family(1), specialization_one_param())
        assert narrow.parameters == ("C",)
        c = MPoly.var("C")
        one = MPoly.const(1)
        expected = {
            (4, 2): one, (0, 2): -one,
            (4, 1): -c - one, (0, 3): c + one,
            (4, 0): c, (0, 4): -c,
            (2, 1): one - c, (2, 3): c - one,
        }
        assert set(narrow.geometric_support()) == set(expected)
        for (i, j), coeff in expected.items():
            assert narrow.monomial_coefficient(i, j) == coeff

    _criterion(
        4, "both parameter specializations hold as polynomial identities", body
    )


def test_criterion_05_k3_covers():
    def body():
        for k in (1, 2, 3):
            cov = k3_cover(family(k))
            assert cov.branch.degree_in("Y") <= 4
            assert cov.branch.degree_in("Z") <= 4
            for i, j in cov.geometric_support():
                assert (i + j) % 2 == 0
        assert bis_condition(k3_cover(family(1)), 1)
        assert bis_condition(k3_cover(family(2)), 2)
        free1 = epsilon_fixed_point_free(k3_cover(family(1)))
        assert free1.free
        a = MPoly.var("A")
        c = MPoly.var("C")
        corners = [free1.corners[key] for key in
                   ("(0,0)", "(inf,0)", "(0,inf)", "(inf,inf)")]
        assert corners == [-a, c, -c, a]
        assert epsilon_fixed_point_free(k3_cover(family(2))).free
        assert epsilon_fixed_point_free(k3_cover(family(3))).free

    _criterion(
        5,
        "covers are polynomial of bidegree (4,4), deck-invariant, satisfy "
        "the anti-symmetry conditions, and the deck lift acts freely",
        body,
    )


def test_criterion_06_lefschetz_suite():
    def body():
        assert holomorphic_lefschetz_case_b(1) == 4
        assert holomorphic_lefschetz_case_b(-1) == 4
        curve = FixedCurveData(genus=9, self_intersection=16)
        for sign in (1, -1):
            lhs, rhs, equal = holomorphic_lefschetz_case_a(sign, curve)
            assert not equal
        lhs, rhs, _ = holomorphic_lefschetz_case_a(1, curve)
        assert lhs == ONE - I
        assert rhs == Cyclo.coerce(4) - Cyclo.coerce(4) * I
        iota, phi1 = neg_both(), inv_both()
        for g, count in (
            (iota, 4), (phi1, 4), (iota.compose(phi1), 4), (swap_root(1), 2),
        ):
            data = qaut_fixed_points(g)
            assert data.count == count == 2 + g.ns_trace()

    _criterion(
        6,
        "case (b) forces 4 points, case (a) with a genus-9 curve is false "
        "(1 - i versus 4 - 4i), and all four fixed counts equal 2 + trace",
        body,
    )


def test_criterion_07_lattice_suite():
    def body():
        start = time.perf_counter()
        u2 = hyperbolic_plane(2)
        assert u2.determinant() == -4
        trace2 = isometries_with_trace(u2, 2, bound=2)
        assert trace2 == [((1, 0), (0, 1))]
        k4 = k4_normal_form_check()
        assert k4.ok
        assert {swap_root(1), swap_root(-1)} <= set(k4.roots)
        assert k4.direct_roots == []
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"lattice suite took {elapsed:.2f}s"
        return f"{elapsed:.2f}s"

    _criterion(
        7,
        "det U(2) = -4, trace-2 isometry unique, and the ruling swaps are "
        "the only monomial square roots of the double inversion",
        body,
    )


def test_criterion_08_moduli_table():
    def body():
        def count(fam, actions):
            checked = [check_parameter_action(fam, a) for a in actions]
            return moduli_number(fam, checked)

        assert count(family(1), [homothety(family(1))]) == 5
        assert count(family(2), [homothety(family(2))]) == 2
        assert count(family(3), [homothety(family(3)), diagonal_base_scaling()]) == 2
        assert moduli_dimension(12, 4) == 5
        assert moduli_dimension(12, 8) == 2
        assert moduli_dimension(6, 4) == 2

    _criterion(8, "moduli numbers 5, 2, 2 from both counting arguments", body)


def test_criterion_09_classification():
    def body():
        outcome = admissible_pairs()
        assert set(outcome.pairs) == {(4, 2), (8, 4), (8, 2)}
        grid = {r.pair for r in outcome.trace} | set(outcome.pairs)
        assert all(RULE_STATEMENTS[record.rule] for record in outcome.trace)
        assert len(outcome.trace) == len(grid) - 3
        assert allowed_orders() == [1, 2, 3, 4, 5, 6, 8]

    _criterion(
        9, "admissible pairs {(4,2), (8,4), (8,2)} with a full pruning "
        "trace and allowed orders {1,...,6, 8}",
        body,
    )


def _field_axioms(rng):
    a, b, c = (rand_cyclo(rng, span=6) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    d = nonzero_cyclo(rng, span=6)
    assert d * d.inverse() == ONE


def _substitution_homomorphism(rng):
    p = rand_mpoly(rng, names=("y", "z"), max_terms=2, max_exp=2, span=2)
    q = rand_mpoly(rng, names=("y", "z"), max_terms=2, max_exp=2, span=2)
    target = {
        v: RatFunc(
            nonzero_mpoly(rng, names=("y", "z"), max_terms=2, max_exp=1, span=2),
            nonzero_mpoly(rng, names=("y", "z"), max_terms=1, max_exp=1, span=2),
        )
        for v in ("y", "z")
    }
    rp = RatFunc.from_poly(p)
    rq = RatFunc.from_poly(q)
    assert (rp + rq).substitute(target) == rp.substitute(target) + rq.substitute(target)
    assert (rp * rq).substitute(target) == rp.substitute(target) * rq.substitute(target)


def _exact_divide_round_trip(rng):
    p = rand_mpoly(rng, names=("y", "z", "A"), max_terms=3, max_exp=2, span=3)
    q = nonzero_mpoly(rng, names=("y", "z", "A"), max_terms=2, max_exp=2, span=3)
    assert exact_divide(p * q, q) == p


def _jacobian_multiplicativity(rng):
    f1, f2 = rand_monomial_plane_map(rng)
    g1, g2 = rand_monomial_plane_map(rng)
    inner = {"y": g1, "z": g2}
    jf = jacobian_det2(f1, f2, "y", "z")
    jg = jacobian_det2(g1, g2, "y", "z")
    composed = jacobian_det2(
        f1.substitute(inner), f2.substitute(inner), "y", "z"
    )
    assert composed == jf.substitute(inner) * jg


def _lefschetz_count(rng):
    if rng.random() < 0.5:
        g = QAut(DIRECT, semisimple_mobius(rng), semisimple_mobius(rng))
        assert qaut_fixed_points(g).count == 2 + g.ns_trace() == 4
    else:
        while True:
            m1, m2 = rand_rational_mobius(rng), rand_rational_mobius(rng)
            h = m1 @ m2
            if h.is_identity():
                continue
            if h.fixed_points()[1]:
                continue
            break
        g = QAut(SWAP, m1, m2)
        assert qaut_fixed_points(g).count == 2 + g.ns_trace() == 2


def test_criterion_10_property_suites_and_golden_determinism():
    def body():
        suites = (
            ("field axioms", _field_axioms),
            ("substitution homomorphism", _substitution_homomorphism),
            ("exact division round trip", _exact_divide_round_trip),
            ("Jacobian multiplicativity", _jacobian_multiplicativity),
            ("fixed count = 2 + trace", _lefschetz_count),
        )
        for label, suite in suites:
            rng = random.Random(20260822)
            for _ in range(100):
                suite(rng)
        golden = GOLDEN.read_text(encoding="utf-8")
        assert verify_all().to_json() == golden
        assert verify_all().to_json() == golden
        return "5 suites x 100 instances; certificate bytes reproduced twice"

    _criterion(
        10,
        "randomized algebraic property suites and byte-for-byte "
        "certificate determinism",
        body,
    )
