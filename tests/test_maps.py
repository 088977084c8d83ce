"""Birational maps, quadric automorphisms, and fixed-point counting."""

import copy
import pickle
import random

import pytest

from enricert.cover import family, k3_cover
from enricert.errors import InvariantError, PreconditionError
from enricert.field import Cyclo, ONE, SQRT_M1, ZERO, ZETA8
from enricert.maps import (
    BirMap,
    DIRECT,
    ENRIQUES_VARS,
    INF,
    K3_VARS,
    Mobius,
    QAut,
    SWAP,
    check_equation_invariance,
    compose,
    deck_flip,
    family_automorphism,
    inv_both,
    is_identity,
    k3_lift,
    k4_normal_form_check,
    map_order,
    maps_equal,
    monomial_square_roots,
    neg_both,
    qaut_fixed_points,
    swap_root,
)
from enricert.poly import RatFunc

from _helpers import nonzero_mpoly, rand_mpoly, rand_rational_mobius, semisimple_mobius


def strings(label="m", **exprs):
    return BirMap.from_strings(ENRIQUES_VARS, label=label, **exprs)


# -- BirMap construction -----------------------------------------------------


def test_birmap_requires_three_variables():
    with pytest.raises(InvariantError, match="three"):
        BirMap(("w", "y"), {"w": 1, "y": 1})


def test_birmap_rejects_zero_base_coordinate():
    with pytest.raises(InvariantError, match="zero"):
        strings(w="w", y="0", z="z")


def test_birmap_rejects_cover_variable_in_base_coordinate():
    with pytest.raises(InvariantError, match="involves w"):
        strings(w="w", y="y*w", z="z")


def test_birmap_rejects_zero_cover_coordinate():
    with pytest.raises(InvariantError, match="cover coordinate is zero"):
        strings(w="0", y="y", z="z")


def test_birmap_rejects_cover_variable_in_cover_denominator():
    with pytest.raises(InvariantError, match="denominator"):
        strings(w="1/w", y="y", z="z")


def test_birmap_rejects_higher_cover_degree():
    with pytest.raises(InvariantError, match="degree > 1"):
        strings(w="w^2", y="y", z="z")


def test_identity_map():
    ident = BirMap.identity()
    assert is_identity(ident)
    assert map_order(ident) == 1


# -- built-in automorphisms ---------------------------------------------------


def test_builtin_orders_on_their_families():
    assert map_order(family_automorphism(1)) == 4
    assert map_order(family_automorphism(2)) == 8
    assert map_order(family_automorphism(3)) == 8
    assert map_order(deck_flip()) == 2


def test_orders_hold_without_reduction_too():
    # the n-th power is the identity coordinate by coordinate: composing
    # never needs the relation w^2 = S
    for k, order in ((1, 4), (2, 8), (3, 8)):
        phi = power = family_automorphism(k)
        for _ in range(order - 1):
            power = compose(phi, power)
        assert [str(power.coords[v]) for v in ENRIQUES_VARS] == ["w", "y", "z"]


def test_square_of_order8_map_is_order4_map():
    s1, s2 = family_automorphism(1), family_automorphism(2)
    assert maps_equal(compose(s2, s2), s1)
    assert not maps_equal(s2, s1)


def test_infinite_order_returns_none():
    grow = strings(label="grow", w="w", y="2*y", z="z")
    assert map_order(grow, max_n=8) is None


def test_compose_rejects_mixed_coordinate_triples():
    with pytest.raises(PreconditionError):
        compose(family_automorphism(1), deck_flip())


def test_builtin_index_errors():
    with pytest.raises(ValueError):
        family_automorphism(4)
    with pytest.raises(ValueError):
        k3_lift(3)


def test_deck_flip_is_not_the_identity_but_squares_to_it():
    eps = deck_flip()
    assert not is_identity(eps)
    assert is_identity(compose(eps, eps))


def test_cover_parts_split_the_cover_coordinate():
    rng = random.Random(20261018)
    w, y, z = (RatFunc.var(v) for v in ENRIQUES_VARS)
    for _ in range(40):
        a, b = (
            RatFunc.from_poly(rand_mpoly(rng, max_terms=2, max_exp=2, span=2))
            / RatFunc.from_poly(nonzero_mpoly(rng, max_terms=2, max_exp=2, span=2))
            for _ in range(2)
        )
        if a.is_zero() and b.is_zero():
            continue
        phi = BirMap(ENRIQUES_VARS, {"w": a + b * w, "y": y, "z": z})
        assert phi.cover_parts() == (a, b)


# -- equation invariance ------------------------------------------------------


def test_invariance_of_builtin_pairs():
    for k in (1, 2, 3):
        res = check_equation_invariance(family(k), family_automorphism(k))
        assert res.holds and bool(res)
        assert res.witness_even.is_zero() and res.witness_odd.is_zero()


def test_invariance_of_lifts_on_covers():
    assert check_equation_invariance(k3_cover(family(1)), k3_lift(1)).holds
    assert check_equation_invariance(k3_cover(family(2)), k3_lift(2)).holds
    for k in (1, 2, 3):
        assert check_equation_invariance(k3_cover(family(k)), deck_flip()).holds


def test_corrupted_map_fails_with_witness():
    # dropping the unit i from the cover coordinate breaks invariance
    bad = strings(label="bad", w="w/(y^2*z^3)", y="1/y", z="1/z")
    res = check_equation_invariance(family(1), bad)
    assert not res.holds and not bool(res)
    assert not res.witness_even.is_zero()
    # (y + w)^2 - S = y^2 + 2*y*w modulo w^2 = S: the odd part is 2ab
    shift = strings(label="shift", w="y + w", y="y", z="z")
    res = check_equation_invariance(family(1), shift)
    assert not res.holds
    assert str(res.witness_even) == "y^2" and str(res.witness_odd) == "2*y"


def test_invariance_rejects_mismatched_variables():
    with pytest.raises(PreconditionError):
        check_equation_invariance(family(1), deck_flip())
    with pytest.raises(PreconditionError):
        check_equation_invariance(k3_cover(family(1)), family_automorphism(1))


# -- Moebius transformations --------------------------------------------------


def test_mobius_rejects_singular_matrix():
    with pytest.raises(InvariantError, match="singular"):
        Mobius(1, 2, 2, 4)


def test_mobius_scalar_normalization():
    assert Mobius(2, 0, 0, 2) == Mobius.identity()
    assert Mobius(2, 4, 0, 2) == Mobius(1, 2, 0, 1)


def test_mobius_immutability():
    m = Mobius(1, 1, 0, 1)
    with pytest.raises(AttributeError):
        m.a = ZERO


def test_mobius_group_laws():
    m = Mobius(1, 2, 3, 4)
    n = Mobius(0, 1, 1, 0)
    assert m @ m.inverse() == Mobius.identity()
    assert (m @ n).inverse() == n.inverse() @ m.inverse()


def test_mobius_apply():
    inv = Mobius(0, 1, 1, 0)
    assert inv.apply(Cyclo.coerce(2)) == Cyclo.coerce(1) / Cyclo.coerce(2)
    assert inv.apply(ZERO) is INF
    assert inv.apply(INF) == ZERO
    shift = Mobius(1, 1, 0, 1)
    assert shift.apply(INF) is INF


def test_mobius_apply_ratfunc_matches_pointwise():
    m = Mobius(1, 2, 3, 4)
    y = RatFunc.var("Y")
    image = m.apply_ratfunc(y)
    for x in (0, 1, -2, 5):
        value = image.substitute({"Y": RatFunc.const(x)})
        assert value.as_constant() == m.apply(Cyclo.coerce(x))


def test_fixed_points_of_identity_rejected():
    with pytest.raises(ValueError):
        Mobius.identity().fixed_points()


def test_fixed_points_translation_is_parabolic():
    count, points, parabolic = Mobius(1, 1, 0, 1).fixed_points()
    assert (count, points, parabolic) == (1, [INF], True)


def test_fixed_points_diagonal():
    count, points, parabolic = Mobius(2, 0, 0, 1).fixed_points()
    assert count == 2 and not parabolic
    assert points == [INF, ZERO]


def test_fixed_points_inversion():
    count, points, parabolic = Mobius(0, 1, 1, 0).fixed_points()
    assert count == 2 and not parabolic
    assert set(points) == {Cyclo.coerce(1), Cyclo.coerce(-1)}


def test_fixed_points_parabolic_affine():
    count, points, parabolic = Mobius(3, 1, -1, 1).fixed_points()
    assert (count, parabolic) == (1, True)
    assert points == [Cyclo.coerce(-1)]


def test_fixed_points_outside_the_field():
    # discriminant 5 has no square root in the field; count still 2
    count, points, parabolic = Mobius(1, 1, 1, 0).fixed_points()
    assert (count, points, parabolic) == (2, None, False)


# -- quadric automorphisms ----------------------------------------------------


def test_qaut_shape_validation():
    with pytest.raises(InvariantError, match="shape"):
        QAut("diagonal", Mobius.identity(), Mobius.identity())


def test_qaut_identity_and_inverse():
    g = QAut(SWAP, Mobius(0, 1, 1, 0), Mobius(2, 0, 0, 1))
    assert not g.is_identity()
    assert g.compose(g.inverse()).is_identity()
    assert g.inverse().compose(g).is_identity()


def test_qaut_orders():
    assert neg_both().order() == 2
    assert inv_both().order() == 2
    assert swap_root(1).order() == 4
    assert swap_root(-1).order() == 4
    assert QAut.identity().order() == 1


def test_qaut_ns_trace():
    assert neg_both().ns_trace() == 2
    assert swap_root(1).ns_trace() == 0


def test_qaut_coord_funcs():
    y = RatFunc.var("Y")
    z = RatFunc.var("Z")
    assert swap_root(1).coord_funcs() == (z.inverse(), y)
    assert inv_both().coord_funcs() == (y.inverse(), z.inverse())


def test_swap_root_sign_validation():
    with pytest.raises(ValueError):
        swap_root(0)


# -- fixed points on the quadric ----------------------------------------------


def test_qaut_fixed_points_rejects_identity():
    with pytest.raises(ValueError):
        qaut_fixed_points(QAut.identity())


def test_qaut_fixed_points_rejects_curve_fixing_maps():
    half = QAut(DIRECT, Mobius(2, 0, 0, 1), Mobius.identity())
    with pytest.raises(ValueError, match="curve"):
        qaut_fixed_points(half)
    m = Mobius(0, 1, 1, 0)
    graph = QAut(SWAP, m, m.inverse())
    with pytest.raises(ValueError, match="curve"):
        qaut_fixed_points(graph)


def test_double_negation_fixes_four_corners():
    data = qaut_fixed_points(neg_both())
    assert data.count == 4 and not data.parabolic
    assert set(data.points) == {(p, q) for p in (INF, ZERO) for q in (INF, ZERO)}


def test_double_inversion_fixes_four_points():
    data = qaut_fixed_points(inv_both())
    one, minus = Cyclo.coerce(1), Cyclo.coerce(-1)
    assert data.count == 4
    assert set(data.points) == {(p, q) for p in (one, minus) for q in (one, minus)}


def test_product_map_fixes_four_points():
    data = qaut_fixed_points(neg_both().compose(inv_both()))
    i = SQRT_M1
    assert data.count == 4
    assert set(data.points) == {(p, q) for p in (i, -i) for q in (i, -i)}


def test_ruling_swap_fixes_two_points():
    data = qaut_fixed_points(swap_root(1))
    assert data.count == 2 and not data.parabolic
    one, minus = Cyclo.coerce(1), Cyclo.coerce(-1)
    assert set(data.points) == {(one, one), (minus, minus)}
    # every listed point really is fixed
    for p, q in data.points:
        m1, m2 = swap_root(1).m1, swap_root(1).m2
        assert (m1.apply(q), m2.apply(p)) == (p, q)


def test_fixed_count_matches_lattice_trace_on_random_maps():
    # Lefschetz-style bookkeeping: a semisimple map fixes 2 + trace points,
    # with trace 2 for ruling-preserving and 0 for ruling-swapping maps
    rng = random.Random(20260822)
    direct_checked = swap_checked = 0
    while direct_checked < 60 or swap_checked < 60:
        if rng.random() < 0.5:
            g = QAut(DIRECT, semisimple_mobius(rng), semisimple_mobius(rng))
            assert qaut_fixed_points(g).count == 4 == 2 + g.ns_trace()
            direct_checked += 1
        else:
            m1, m2 = rand_rational_mobius(rng), rand_rational_mobius(rng)
            h = m1 @ m2
            if h.is_identity():
                continue
            _, _, parabolic = h.fixed_points()
            if parabolic:
                continue
            g = QAut(SWAP, m1, m2)
            assert qaut_fixed_points(g).count == 2 == 2 + g.ns_trace()
            swap_checked += 1


def test_swap_fixed_points_survive_irrational_coordinates():
    # trace count degrades gracefully when the coordinates leave the field
    m1 = Mobius(1, 1, 1, 0)
    g = QAut(SWAP, m1, Mobius.identity())
    data = qaut_fixed_points(g)
    assert data.count == 2 and data.points is None


# -- square roots and the Klein-four normal form ------------------------------


def test_monomial_square_roots_of_double_inversion():
    roots = monomial_square_roots(inv_both())
    assert len(roots) == 4
    assert all(g.shape == SWAP for g in roots)
    assert all(g.compose(g) == inv_both() for g in roots)
    assert set(roots) == {
        swap_root(1), swap_root(-1),
        swap_root(1).inverse(), swap_root(-1).inverse(),
    }


def test_monomial_square_roots_of_double_negation():
    # sanity check on a target that does admit ruling-preserving roots
    roots = monomial_square_roots(neg_both())
    assert roots and all(g.compose(g) == neg_both() for g in roots)
    assert any(g.shape == DIRECT for g in roots)


def test_k4_normal_form():
    result = k4_normal_form_check()
    assert result.ok and bool(result)
    assert result.klein_ok and result.candidates_ok and result.up_to_inverse_ok
    assert result.direct_roots == []
    assert len(result.roots) == 4


# -- compatibility between surface maps and quadric maps ----------------------


def _projection():
    y = RatFunc.var("Y")
    z = RatFunc.var("Z")
    return y * z, z * z


def test_projection_intertwines_swap_root_with_order8_base():
    # the quotient map (Y, Z) -> (Y*Z, Z^2) carries the ruling swap
    # (1/Z, Y) to the order-8 base map (y/z, y^2/z)
    p1, p2 = _projection()
    fy, fz = swap_root(1).coord_funcs()
    lhs = (
        p1.substitute({"Y": fy, "Z": fz}),
        p2.substitute({"Y": fy, "Z": fz}),
    )
    sigma = family_automorphism(2)
    rhs = (
        sigma.coords["y"].substitute({"y": p1, "z": p2}),
        sigma.coords["z"].substitute({"y": p1, "z": p2}),
    )
    assert lhs == rhs


def test_projection_intertwines_double_inversion_with_order4_base():
    p1, p2 = _projection()
    fy, fz = inv_both().coord_funcs()
    lhs = (
        p1.substitute({"Y": fy, "Z": fz}),
        p2.substitute({"Y": fy, "Z": fz}),
    )
    sigma = family_automorphism(1)
    rhs = (
        sigma.coords["y"].substitute({"y": p1, "z": p2}),
        sigma.coords["z"].substitute({"y": p1, "z": p2}),
    )
    assert lhs == rhs


def test_mobius_and_qaut_pickle_and_deepcopy_round_trip():
    m = Mobius(ZETA8, ONE, ZERO, SQRT_M1)
    g = QAut(SWAP, m, Mobius.identity())
    for value in (m, g):
        for restored in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert restored == value and hash(restored) == hash(value)
