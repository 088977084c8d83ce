"""Birational maps, quadric automorphisms, and fixed-point counting."""

import itertools
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from enricert import maps, poly
from enricert.cover import SurfaceFamily, family, k3_cover
from enricert.errors import (
    DegreeCapError, EngineError, InvariantError, PreconditionError, SizeCapError,
)
from enricert.field import Cyclo, ONE, SQRT_M1, ZERO, ZETA8
from enricert.maps import (
    BirMap,
    DIRECT,
    ENRIQUES_VARS,
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
    neg_both,
    qaut_fixed_points,
    swap_root,
)
from enricert.maps import (
    _compose_forms, _compose_monomial, _exponent_form, _exponent_matrix, _inverse_monomial,
    _monomial_mobius, _monomial_order, _order_by_composition, _qaut_of_form, _square_roots,
)
from enricert.moduli import homothety
from enricert.poly import DEGREE_CAP, MPoly, RatFunc

from enricert.parsing import parse_expression

from _helpers import (
    BASE_BLOCKS, SINGULAR_BLOCKS, adjugate, builtin_and_document_families, document_maps,
    document_pairs, identity_map, monomial_maps, nonzero_mpoly, rand_mpoly, rand_rational_mobius,
    semisimple_mobius,
)


def strings(label="m", **exprs):
    return BirMap.from_strings(ENRIQUES_VARS, label=label, **exprs)


# -- BirMap construction -----------------------------------------------------


def test_birmap_requires_three_variables():
    with pytest.raises(InvariantError, match="three"):
        BirMap(("w", "y"), {"w": 1, "y": 1}, "m")


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
    for ident in (identity_map(), strings(w="w", y="y", z="z")):
        assert is_identity(ident)
        assert map_order(ident) == 1
        assert _order_by_composition(ident) == 1


def test_identity_test_at_the_cap_multiplies_nothing():
    # y against (1 + y)/y^64: cross-multiplying would build y^65
    grow = strings(w="w", y="(1+y)/y^64", z="z")
    assert not is_identity(grow)


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
    assert map_order(grow) is None


# -- map_order in exponent form against composition -----------------------


def _outcome(order_fn, phi):
    """The order, or the type and text of the exception raised instead."""
    try:
        return order_fn(phi)
    except EngineError as exc:
        return type(exc), str(exc)


_VARIABLE_TRIPLES = st.sampled_from((ENRIQUES_VARS, K3_VARS))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(phi=_VARIABLE_TRIPLES.flatmap(monomial_maps))
def test_map_order_matches_composition_on_monomial_maps(phi):
    # exponent form gives the loop's order wherever the loop returns; where
    # the loop hits the cap, exponent form may still answer
    assert _exponent_form(phi) is not None
    fast = _outcome(map_order, phi)
    loop = _outcome(_order_by_composition, phi)
    if isinstance(loop, tuple):
        assert not isinstance(fast, tuple) or fast[0] is DegreeCapError
    else:
        assert fast == loop


def _at(form, point):
    """The coordinates of a map in exponent form at ``point``."""
    values = []
    for c, row in form:
        for x, k in zip(point, row):
            c = c * x ** k
        values.append(c)
    return tuple(values)


_POINT = tuple(Cyclo.from_rational(p) for p in (2, 3, 5))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(pair=_VARIABLE_TRIPLES.flatmap(
    lambda vs: st.tuples(monomial_maps(vs), monomial_maps(vs))
))
# y/z after (y^64, y^20/z^20) is y^44*z^20, which compose builds from the
# form, where substituting takes the product y^64 * z^20, over the cap
@example(pair=(strings(w="w", y="y/z", z="z"), strings(w="w", y="y^64", z="y^20/z^20")))
def test_exponent_forms_compose_like_the_maps(pair):
    # (c, M) . (d, N) = (c * d^M, M N) for two different maps, which need
    # not commute: it is outer after inner at a point, and it is the form
    # of the composed map wherever that map stays under the cap
    outer, inner = pair
    f, g = _exponent_form(outer), _exponent_form(inner)
    form = _compose_forms(f, g)
    assert _at(form, _POINT) == _at(f, _at(g, _POINT))
    try:
        composed = compose(outer, inner)
    except DegreeCapError:
        return
    assert form == _exponent_form(composed)
    # where substituting answers too, it gives the same map
    expected = _compose_outcome(_by_substitution, outer, inner)
    if not isinstance(expected[0], type):
        assert _coordinates(composed) == expected


@pytest.mark.parametrize("phi, expected", [
    (identity_map(), 1),
    (identity_map(K3_VARS), 1),
    (deck_flip(), 2),
    (family_automorphism(1), 4),
    (family_automorphism(2), 8),
    (family_automorphism(3), 8),
    (k3_lift(1), 4),
    (k3_lift(2), 8),
    (strings(w="w", y="2*y", z="z"), None),
    (strings(w="w", y="-y", z="zeta8*z"), 8),
    (strings(w="w*y", y="1/y", z="z"), 2),
], ids=[
    "identity", "k3-identity", "deck-flip", "aut-4-2", "aut-8-4", "aut-8-2",
    "lift-4-2", "lift-8-4", "scaling", "zeta8-scaling", "cover-twist",
])
def test_map_order_of_monomial_maps_composes_nothing(monkeypatch, phi, expected):
    calls = []
    monkeypatch.setattr(maps, "compose", lambda *args: calls.append(args))
    assert map_order(phi) == expected
    assert not calls
    monkeypatch.undo()
    assert _order_by_composition(phi) == expected


def _cap_error(power, degree):
    return DegreeCapError, (
        f"power {power} of grow: coordinate of total degree {degree} "
        f"exceeds cap {DEGREE_CAP}"
    )


@pytest.mark.parametrize("coords, expected", [
    # y^(2^n): the seventh power y^128 cannot be stored
    ({"w": "w", "y": "y^2", "z": "z"}, _cap_error(7, 128)),
    # the third power sends y to 1/y^64, which the identity test compares
    # with y without a product
    ({"w": "w", "y": "1/y^4", "z": "1/y^4"}, _cap_error(4, 256)),
    # the square is under the cap, but substituting z^3/y^4 into y^5*z^6
    # takes the term-by-term path, whose products are not
    ({"w": "w", "y": "y^5*z^6", "z": "z^3/y^4"}, _cap_error(3, 337)),
    # the same for the denominator y^2 of the cover coordinate
    ({"w": "w/y^2", "y": "1/(y^5*z^5)", "z": "z^5/y^3"}, _cap_error(3, 400)),
    # the map itself is stored; its square y^4096 is not
    ({"w": "w", "y": "1/y^64", "z": "z"}, _cap_error(2, 4096)),
], ids=["substitution", "identity-test", "term-by-term", "denominator", "first-power"])
def test_map_order_past_the_cap_raises_the_loops_error(coords, expected):
    # composing the maps raises DegreeCapError on each of these maps;
    # map_order raises its own error only at a power it cannot store
    grow = strings(label="grow", **coords)
    assert _outcome(map_order, grow) == expected
    with pytest.raises(DegreeCapError, match="product term"):
        _order_by_composition(grow)


@pytest.mark.parametrize("phi, expected", [
    (strings(w="w", y="A*y", z="z"), None),
    (strings(w="w", y="(1+y)/(1-y)", z="z"), 4),
    (strings(w="w + y", y="y", z="z"), None),
], ids=["parameter", "multi-term", "cover-sum"])
def test_map_order_composes_maps_outside_the_exponent_form(phi, expected):
    assert _exponent_form(phi) is None
    assert map_order(phi) == _order_by_composition(phi) == expected


def test_compose_rejects_mixed_coordinate_triples():
    with pytest.raises(PreconditionError):
        compose(family_automorphism(1), deck_flip())


def _builtin_maps():
    return [
        *(family_automorphism(k) for k in maps._AUTOMORPHISMS),
        *(k3_lift(k) for k in maps._LIFTS),
        deck_flip(),
    ]


def _declared_texts():
    """label -> {variable: text}, from the comment above each row of the
    built-in map tables in maps.py."""
    source = Path(maps.__file__).read_text(encoding="utf-8")
    rows = re.findall(r"# (\w) -> (.+), (\w) -> (.+), (\w) -> (.+)\n\s*(.+)", source)
    texts = {}
    for *pairs, row in rows:
        label = "deck_flip" if row.startswith("_DECK_FLIP") else re.search(r'"(\w+)"', row)[1]
        texts[label] = dict(zip(pairs[::2], pairs[1::2]))
    return texts


def _coordinates(phi):
    """The label, the text and the num/den pair of each coordinate."""
    return phi.label, str(phi), [
        (list(phi.coords[v].num.term_items()), list(phi.coords[v].den.term_items()))
        for v in phi.variables
    ]


@pytest.mark.parametrize("phi", _builtin_maps(), ids=lambda phi: phi.label)
def test_a_builtin_map_is_the_map_of_its_paper_text(phi):
    # each table row is declared in exponent form; the comment above it is
    # its text, which parses to the same coordinates
    parsed = BirMap.from_strings(phi.variables, phi.label, **_declared_texts()[phi.label])
    assert _coordinates(phi) == _coordinates(parsed)
    # from_form seeds the cached form with the form the coordinates give
    assert phi.__dict__["exponent_form"] == _exponent_form(phi)


def test_every_builtin_table_row_has_its_paper_text():
    assert sorted(_declared_texts()) == sorted(phi.label for phi in _builtin_maps())


def _compose_outcome(compose_fn, outer, inner):
    try:
        return _coordinates(compose_fn(outer, inner))
    except EngineError as exc:
        return type(exc), str(exc)


def _by_substitution(outer, inner):
    if not maps.same_triple(outer, inner):
        raise PreconditionError("composing maps over different coordinate triples")
    return maps._compose_by_substitution(outer, inner, f"{outer.label}.{inner.label}")


def test_compose_by_forms_is_composition_by_substitution(monkeypatch):
    # every ordered pair of the built-in maps and the generated documents'
    # maps, over either triple, with the same labels
    candidates = _builtin_maps() + document_maps()
    assert all(phi.exponent_form is not None for phi in candidates)
    pairs = list(itertools.product(candidates, repeat=2))
    expected = [_compose_outcome(_by_substitution, *pair) for pair in pairs]

    def refuse(*args):
        raise AssertionError("compose substituted")

    # every composed form is under the cap, so compose substitutes nothing
    monkeypatch.setattr(maps, "_compose_by_substitution", refuse)
    for pair, outcome_ in zip(pairs, expected):
        assert _compose_outcome(compose, *pair) == outcome_, pair
        if maps.same_triple(*pair):
            composed = compose(*pair)
            assert composed.exponent_form == _exponent_form(composed)


def test_compose_past_the_cap_by_forms_raises_the_substitution_error():
    # y^64 after y^2 is y^128, over the cap: compose substitutes, and the
    # first product over the cap raises
    outer = strings(label="a", w="w", y="y^64", z="z")
    inner = strings(label="b", w="w", y="y^2", z="z")
    with pytest.raises(DegreeCapError, match=r"^product term of total degree 66 exceeds cap 64$"):
        compose(outer, inner)


def test_builtin_index_errors():
    with pytest.raises(ValueError, match=r"^no built-in automorphism 4; choose 1, 2 or 3$"):
        family_automorphism(4)
    with pytest.raises(ValueError, match=r"^no built-in lift 3; choose 1 or 2$"):
        k3_lift(3)


def test_builtin_map_tables_have_the_tags_of_their_records():
    # one automorphism per built-in family; a lift for each family whose
    # cover carries a bis-condition record
    from enricert.certificate import _BIS_STATEMENTS
    from enricert.cover import BUILTIN_FAMILIES

    assert tuple(maps._AUTOMORPHISMS) == BUILTIN_FAMILIES
    assert tuple(maps._LIFTS) == tuple(_BIS_STATEMENTS)


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
        phi = BirMap(ENRIQUES_VARS, {"w": a + b * w, "y": y, "z": z}, "m")
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
    # the verdict reads both parts: a zero even part alone does not hold
    odd_only = maps.InvarianceResult(MPoly.zero(), res.witness_odd)
    assert not odd_only.holds and not bool(odd_only)


def _subtraction_verdict(fam, phi):
    """Whether (phi*w)^2 = S(phi*y, phi*z) modulo w^2 = S, by subtracting
    the cross-multiplied numerators of a^2 + b^2 S and S(phi*y, phi*z)."""
    b1, b2 = fam.base_vars
    relation = fam.relation()
    pulled = relation.substitute({b1: phi.coords[b1], b2: phi.coords[b2]})
    a, b = phi.cover_parts()
    lhs = a * a + b * b * RatFunc.from_poly(relation)
    even = lhs.num * pulled.den - pulled.num * lhs.den
    return even.is_zero() and (a.num * b.num).is_zero()


def _builtin_invariance_pairs():
    enriques = [strings(label="shift", w="y + w", y="y", z="z"),
                strings(label="bad", w="w/(y^2*z^3)", y="1/y", z="1/z")]
    enriques += [family_automorphism(k) for k in (1, 2, 3)]
    pairs = [(family(k), phi) for k in (1, 2, 3) for phi in enriques]
    lifts = [k3_lift(k) for k in (1, 2)]
    lifts += [deck_flip()] + [compose(deck_flip(), lift) for lift in lifts]
    return pairs + [(k3_cover(family(k)), phi) for k in (1, 2, 3) for phi in lifts]


@pytest.mark.parametrize(
    "pairs, holding",
    [(_builtin_invariance_pairs, 13), (document_pairs, 36)],
    ids=["builtin", "docgen-seeds-1-3"],
)
def test_invariance_verdicts_equal_an_explicit_subtraction(pairs, holding):
    verdicts = [
        (check_equation_invariance(fam, phi).holds, _subtraction_verdict(fam, phi))
        for fam, phi in pairs()
    ]
    assert all(engine == second for engine, second in verdicts)
    # both verdicts occur: the decoy and the wrong-family maps fail
    assert sum(engine for engine, _ in verdicts) == holding < len(verdicts)


def test_invariance_rejects_mismatched_variables():
    with pytest.raises(PreconditionError):
        check_equation_invariance(family(1), deck_flip())
    with pytest.raises(PreconditionError):
        check_equation_invariance(k3_cover(family(1)), family_automorphism(1))


# -- invariance of monomial maps against the RatFunc body --------------------
#
# check_equation_invariance sums the even part of a map with a single-term
# cover coordinate as one Laurent sum.  _invariance_by_ratfuncs is the RatFunc
# arithmetic it stands in for; both must give the same witness terms and
# text, or raise the same exception with the same text.


def _invariance_outcome(compute, fam, phi):
    try:
        res = compute(fam, phi)
    except EngineError as exc:
        return type(exc), str(exc)
    return res.witness_even.terms, res.witness_odd.terms, repr(res)


def _general_invariance(fam, phi):
    return maps._invariance_by_ratfuncs(*maps._pullback(fam, phi))


def _family(text):
    """An enriques_horikawa family without parameters with branch ``text``."""
    return SurfaceFamily("t", family(1).kind, parse_expression(text).as_poly(), ())


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(builtin_and_document_families()).flatmap(lambda fam: st.tuples(
    st.just(fam),
    monomial_maps(fam.variables, st.one_of(BASE_BLOCKS, SINGULAR_BLOCKS)),
)))
# S = z^3, t = b^2 = y^60: t * S has degree 63; at y^62 its product is over
# the cap, and the RatFunc body raises
@example((_family("z^2"), strings(w="w * y^30", y="y", z="z")))
@example((_family("z^2"), strings(w="w * y^31", y="y", z="z")))
# t = 1 / y^62: S times t's denominator is the product over the cap
@example((_family("z^2"), strings(w="w / y^30", y="y", z="z")))
@example((_family("z^2"), strings(w="w / y^31", y="y", z="z")))
# S = y^4 * z pulls back to z / y^4; at z^-62 the RatFunc body's product
# of the two reduced denominators, z^61 * y^4, is over the cap
@example((_family("y^4"), strings(w="w / z^30", y="1 / y", z="z")))
@example((_family("y^4"), strings(w="w / z^31", y="1 / y", z="z")))
# a = y^32: a^2 is at the cap; a = y^33: a^2 is past it, and forming it
# raises the RatFunc body's error
@example((_family("z^2"), strings(w="y^32", y="y", z="z")))
@example((_family("z^2"), strings(w="y^33", y="y", z="z")))
# the pulled-back relation is over the cap: both raise the substitution's error
@example((family(1), strings(w="w", y="y^40", z="z")))
@example((family(1), strings(w="w", y="1 / y^20", z="z^3")))
def test_monomial_invariance_matches_the_ratfunc_body(case):
    fam, phi = case
    fast = _invariance_outcome(check_equation_invariance, fam, phi)
    assert fast == _invariance_outcome(_general_invariance, fam, phi)


@pytest.mark.parametrize("spare", [0, -1])
def test_monomial_invariance_at_the_size_cap(monkeypatch, spare):
    # b^2 * g visits 1 x |g| term pairs; one pair over the cap, the RatFunc
    # body raises SizeCapError.  On a K3 cover the relation is the branch g
    # itself, and the lift's substitution multiplies nothing, so the cap is
    # first met there.  The Laurent sum multiplies nothing, so it answers
    # with the witness the body gives under the default cap.
    fam, phi = k3_cover(family(1)), k3_lift(1)
    default = _invariance_outcome(_general_invariance, fam, phi)
    monkeypatch.setattr(poly, "MAX_TERM_PAIRS", len(fam.relation().terms) + spare)
    general = _invariance_outcome(_general_invariance, fam, phi)
    assert (general[0] is SizeCapError) == (spare < 0)
    if spare == 0:
        assert general == default
    assert _invariance_outcome(check_equation_invariance, fam, phi) == default


# -- Moebius transformations --------------------------------------------------


def test_mobius_rejects_singular_matrix():
    with pytest.raises(InvariantError, match="singular"):
        Mobius(1, 2, 2, 4)


def test_mobius_scalar_normalization():
    assert Mobius(2, 0, 0, 2) == Mobius(1, 0, 0, 1)
    assert Mobius(2, 0, 0, 2).is_identity()
    assert Mobius(2, 4, 0, 2) == Mobius(1, 2, 0, 1)


@pytest.mark.parametrize("value", [
    MPoly.var("y"), RatFunc.var("y"), Mobius(1, 1, 0, 1), swap_root(1), homothety(family(1)),
], ids=lambda value: type(value).__name__)
def test_equality_with_a_foreign_object_is_not_implemented(value):
    assert value.__eq__(object()) is NotImplemented
    assert value != object()


def test_mobius_immutability():
    m = Mobius(1, 1, 0, 1)
    with pytest.raises(AttributeError):
        m.a = ZERO


def test_qaut_immutability():
    g = swap_root(1)
    for attr, value in (("shape", DIRECT), ("m1", Mobius(1, 0, 0, 1)), ("m2", g.m1)):
        with pytest.raises(AttributeError, match="QAut instances are immutable"):
            setattr(g, attr, value)
    assert g == swap_root(1)


def test_mobius_group_laws():
    m = Mobius(1, 2, 3, 4)
    n = Mobius(0, 1, 1, 0)
    assert (m @ adjugate(m)).is_identity() and (adjugate(m) @ m).is_identity()
    assert adjugate(m @ n) == adjugate(n) @ adjugate(m)


def test_fixed_points_of_identity_rejected():
    with pytest.raises(ValueError):
        Mobius(1, 0, 0, 1).fixed_points()


def test_fixed_points_are_fixed_point_data_for_mobius_and_qaut():
    data = Mobius(2, 0, 0, 1).fixed_points()
    assert isinstance(data, maps.FixedPointData)
    assert (data.count, data.parabolic) == (2, False)
    assert isinstance(qaut_fixed_points(swap_root(1)), maps.FixedPointData)


def test_fixed_points_translation_is_parabolic():
    assert Mobius(1, 1, 0, 1).fixed_points() == (1, True)


def test_fixed_points_diagonal():
    assert Mobius(2, 0, 0, 1).fixed_points() == (2, False)


def test_fixed_points_inversion():
    assert Mobius(0, 1, 1, 0).fixed_points() == (2, False)


def test_fixed_points_parabolic_affine():
    # discriminant (1 - 3)^2 + 4 * 1 * (-1) = 0: the double root -1
    assert Mobius(3, 1, -1, 1).fixed_points() == (1, True)


def test_fixed_points_outside_the_field():
    # discriminant 5 has no square root in the field; count still 2
    assert Mobius(1, 1, 1, 0).fixed_points() == (2, False)


# -- quadric automorphisms ----------------------------------------------------


def test_qaut_shape_validation():
    with pytest.raises(InvariantError, match="shape"):
        QAut("diagonal", Mobius(1, 0, 0, 1), Mobius(1, 0, 0, 1))


def test_qaut_identity_and_inverse():
    # (m1 . Z, m2 . Y) is undone by (m2^-1 . Z, m1^-1 . Y)
    m1, m2 = Mobius(0, 1, 1, 0), Mobius(2, 0, 0, 1)
    g, inverse = QAut(SWAP, m1, m2), QAut(SWAP, adjugate(m2), adjugate(m1))
    assert not g.is_identity()
    assert g.compose(inverse).is_identity()
    assert inverse.compose(g).is_identity()
    assert _qaut_of_form(maps._IDENTITY_FORM).is_identity()
    # every monomial form's inverse undoes it on both sides, in exponent
    # form and through the Mobius arithmetic
    for form in _monomial_forms():
        back = _inverse_monomial(form)
        assert _compose_monomial(form, back) == maps._IDENTITY_FORM
        assert _compose_monomial(back, form) == maps._IDENTITY_FORM
        g, h = _qaut_of_form(form), _qaut_of_form(back)
        assert g.compose(h).is_identity() and h.compose(g).is_identity()


def test_qaut_orders():
    assert _monomial_order(maps._NEG_BOTH) == 2
    assert _monomial_order(maps._INV_BOTH) == 2
    assert _monomial_order(maps._SWAP_ROOTS[1]) == 4
    assert _monomial_order(maps._SWAP_ROOTS[-1]) == 4
    assert _monomial_order(maps._IDENTITY_FORM) == 1


def _k3_lift_of_form(form):
    """The monomial QAut of ``form`` as a K3 map fixing W, its scalars
    powers of zeta8 in Cyclo."""
    (m11, m12, m21, m22), (k1, k2) = form
    rows = ((ONE, (1, 0, 0)), (ZETA8 ** k1, (0, m11, m12)), (ZETA8 ** k2, (0, m21, m22)))
    return BirMap.from_form(K3_VARS, rows, "lift")


def test_monomial_order_matches_map_order_of_the_k3_lift():
    # map_order powers Cyclo scalars, not exponents of zeta8 mod 8
    orders = [_monomial_order(form) for form in _monomial_forms()]
    assert orders == [map_order(_k3_lift_of_form(form)) for form in _monomial_forms()]
    # a swap whose two unit exponents have an odd sum has the largest order
    assert max(orders) == 16


def test_qaut_ns_trace():
    assert neg_both().ns_trace() == 2
    assert swap_root(1).ns_trace() == 0


def _act(m, x):
    """m . x as a RatFunc, by the fractional-linear formula."""
    a, b, c, d = (RatFunc.const(e) for e in (m.a, m.b, m.c, m.d))
    return (a * x + b) / (c * x + d)


def _coord_funcs(g):
    """The (Y, Z) coordinate functions of a QAut."""
    y, z = RatFunc.var("Y"), RatFunc.var("Z")
    if g.shape == DIRECT:
        return _act(g.m1, y), _act(g.m2, z)
    return _act(g.m1, z), _act(g.m2, y)


def test_qaut_coord_funcs():
    # the matrices encode the maps the constructors' docstrings name
    y = RatFunc.var("Y")
    z = RatFunc.var("Z")
    assert _coord_funcs(swap_root(1)) == (z.inverse(), y)
    assert _coord_funcs(inv_both()) == (y.inverse(), z.inverse())


def test_swap_root_sign_validation():
    with pytest.raises(ValueError):
        swap_root(0)


# -- fixed points on the quadric ----------------------------------------------


def test_qaut_fixed_points_rejects_identity():
    with pytest.raises(ValueError):
        qaut_fixed_points(_qaut_of_form(maps._IDENTITY_FORM))


def test_qaut_fixed_points_rejects_curve_fixing_maps():
    half = QAut(DIRECT, Mobius(2, 0, 0, 1), Mobius(1, 0, 0, 1))
    with pytest.raises(ValueError, match="curve"):
        qaut_fixed_points(half)
    m = Mobius(0, 1, 1, 0)
    graph = QAut(SWAP, m, adjugate(m))
    with pytest.raises(ValueError, match="curve"):
        qaut_fixed_points(graph)


# The paper's named fixed points, checked with plain field arithmetic and
# not with the engine's count: a point x of P1 is fixed by m exactly when
# c x^2 + (d - a) x - b = 0 (x finite) or c = 0 (x infinite, None here).
# A non-identity m has at most two fixed points, so naming that many
# distinct ones settles the count.


def _fixes(m, x):
    if x is None:
        return m.c.is_zero()
    return (m.c * x * x + (m.d - m.a) * x - m.b).is_zero()


def _check_named_points(m, points):
    assert len(set(points)) == len(points)
    assert all(_fixes(m, x) for x in points)
    assert m.fixed_points() == (len(points), len(points) == 1)


def _check_direct(g, points1, points2):
    _check_named_points(g.m1, points1)
    _check_named_points(g.m2, points2)
    data = qaut_fixed_points(g)
    assert data.count == len(points1) * len(points2) == 2 + g.ns_trace()
    assert not data.parabolic


def test_double_negation_fixes_four_corners():
    _check_direct(neg_both(), [ZERO, None], [ZERO, None])


def test_double_inversion_fixes_four_points():
    one, minus = Cyclo.coerce(1), Cyclo.coerce(-1)
    _check_direct(inv_both(), [one, minus], [one, minus])


def test_product_map_fixes_four_points():
    i = SQRT_M1
    _check_direct(neg_both().compose(inv_both()), [i, -i], [i, -i])


def test_ruling_swap_fixes_two_points():
    g = swap_root(1)
    one, minus = Cyclo.coerce(1), Cyclo.coerce(-1)
    # a fixed point (Y0, m2 . Y0) has Y0 fixed by m1 . m2
    _check_named_points(g.m1 @ g.m2, [one, minus])
    data = qaut_fixed_points(g)
    assert data.count == 2 == 2 + g.ns_trace() and not data.parabolic
    # and (1, 1), (-1, -1) really are fixed by (Y, Z) -> (1/Z, Y)
    fy, fz = _coord_funcs(g)
    for p in (one, minus):
        point = {"Y": RatFunc.const(p), "Z": RatFunc.const(p)}
        assert (fy.substitute(point), fz.substitute(point)) == (point["Y"], point["Z"])


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
            _, parabolic = h.fixed_points()
            if parabolic:
                continue
            g = QAut(SWAP, m1, m2)
            assert qaut_fixed_points(g).count == 2 == 2 + g.ns_trace()
            swap_checked += 1


def test_swap_fixed_points_survive_irrational_coordinates():
    # the count needs no coordinates: these fixed points (1 +- sqrt 5)/2
    # lie outside the field
    m1 = Mobius(1, 1, 1, 0)
    g = QAut(SWAP, m1, Mobius(1, 0, 0, 1))
    data = qaut_fixed_points(g)
    assert data.count == 2 and not data.parabolic


# -- square roots and the Klein-four normal form ------------------------------


def _roots(target):
    """The square roots of an exponent-form target, as QAuts."""
    return [_qaut_of_form(root) for root in _square_roots(target)]


_DOUBLE_INVERSION = (_exponent_matrix(DIRECT, -1, -1), (0, 0))
_DOUBLE_NEGATION = (_exponent_matrix(DIRECT, 1, 1), (4, 4))


def test_monomial_square_roots_of_double_inversion():
    assert _qaut_of_form(_DOUBLE_INVERSION) == inv_both()
    roots = _roots(_DOUBLE_INVERSION)
    assert len(roots) == 4
    assert all(g.shape == SWAP for g in roots)
    assert all(g.compose(g) == inv_both() for g in roots)
    # the inverse of (s/Z, s*Y) is (s*Z, s/Y)
    assert set(roots) == {
        swap_root(1), swap_root(-1),
        QAut(SWAP, Mobius(1, 0, 0, 1), Mobius(0, 1, 1, 0)),
        QAut(SWAP, Mobius(-1, 0, 0, 1), Mobius(0, -1, 1, 0)),
    }


def test_monomial_square_roots_of_double_negation():
    # sanity check on a target that does admit ruling-preserving roots
    assert _qaut_of_form(_DOUBLE_NEGATION) == neg_both()
    roots = _roots(_DOUBLE_NEGATION)
    assert roots and all(g.compose(g) == neg_both() for g in roots)
    assert any(g.shape == DIRECT for g in roots)


def test_k4_normal_form():
    result = k4_normal_form_check()
    assert result.ok and bool(result)
    assert result.klein_ok and result.candidates_ok and result.up_to_inverse_ok
    assert result.direct_roots == []
    assert len(result.roots) == 4
    # a ruling-preserving root fails the check, whatever the stored flags
    direct = next(g for g in _roots(_DOUBLE_NEGATION) if g.shape == DIRECT)
    spoiled = maps.K4CheckResult(True, True, result.roots + [direct], True)
    assert spoiled.direct_roots == [direct]
    assert not spoiled.ok and not bool(spoiled)


def _unit_mobius(k, inverted):
    u = ZETA8 ** k
    return Mobius(ZERO, u, ONE, ZERO) if inverted else Mobius(u, ZERO, ZERO, ONE)


def _monomial_forms():
    """The exponent form (M, k) of every monomial QAut
    (Y, Z) -> (u1 * V1^+-1, u2 * V2^+-1), in the order the search reports
    roots."""
    for shape in (DIRECT, SWAP):
        for e1, e2 in itertools.product((1, -1), repeat=2):
            for k in itertools.product(range(8), repeat=2):
                yield _exponent_matrix(shape, e1, e2), k


def _monomial_candidates():
    """The QAuts of _monomial_forms, built through Mobius normalisation."""
    for shape in (DIRECT, SWAP):
        for inv1, inv2 in itertools.product((False, True), repeat=2):
            for k1, k2 in itertools.product(range(8), repeat=2):
                yield QAut(shape, _unit_mobius(k1, inv1), _unit_mobius(k2, inv2))


def _brute_force_square_roots(target):
    return [g for g in _monomial_candidates() if g.compose(g) == target]


@pytest.mark.parametrize("target", [
    _DOUBLE_INVERSION,
    _DOUBLE_NEGATION,
    maps._IDENTITY_FORM,
    (_exponent_matrix(SWAP, -1, 1), (0, 0)),
], ids=["double-inversion", "double-negation", "identity", "swap-shaped"])
def test_monomial_square_roots_match_the_brute_force_search(target):
    assert _roots(target) == _brute_force_square_roots(_qaut_of_form(target))


def _square_of_form(m, k):
    """(M, k) . (M, k) = (M^2, k + M k mod 8), written out."""
    m11, m12, m21, m22 = m
    k1, k2 = k
    return (
        (m11 * m11 + m12 * m21, m11 * m12 + m12 * m22,
         m21 * m11 + m22 * m21, m21 * m12 + m22 * m22),
        ((k1 + m11 * k1 + m12 * k2) % 8, (k2 + m21 * k1 + m22 * k2) % 8),
    )


def _square_roots_over_all_candidates(target):
    """The square-root search that squares all 512 candidates in exponent
    form, matrix and unit pair alike: the reference for the search that
    tries the unit pairs only for a matrix whose square is the target's."""
    return [(m, k) for m, k in _monomial_forms() if _square_of_form(m, k) == target]


def test_square_roots_of_every_monomial_target_match_the_search_over_all_candidates():
    targets = list(_monomial_forms())
    assert len(targets) == 512
    found = 0
    for target in targets:
        roots = _square_roots(target)
        assert roots == _square_roots_over_all_candidates(target)
        found += len(roots)
    # every candidate is the root of its own square, and of that square only
    assert found == 512


def test_exponent_forms_follow_the_qaut_operations():
    # every monomial candidate: its form builds it; composition on a sample
    # of pairs
    forms = list(_monomial_forms())
    for form, g in zip(forms, _monomial_candidates()):
        assert _qaut_of_form(form) == g
    rng = random.Random(20261019)
    for _ in range(300):
        f, h = rng.choice(forms), rng.choice(forms)
        assert _qaut_of_form(_compose_monomial(f, h)) == _qaut_of_form(f).compose(_qaut_of_form(h))


def test_monomial_candidates_are_pairwise_distinct():
    candidates = list(_monomial_candidates())
    assert len(candidates) == len(set(candidates)) == 512


@settings(max_examples=12, deadline=None)
@given(
    shape=st.sampled_from((DIRECT, SWAP)),
    signs=st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1))),
    units=st.tuples(st.integers(0, 7), st.integers(0, 7)),
)
def test_square_roots_of_squares_match_the_brute_force_search(shape, signs, units):
    form = (_exponent_matrix(shape, *signs), units)
    target = _compose_monomial(form, form)
    g = _qaut_of_form(form)
    assert g.compose(g) == _qaut_of_form(target)
    roots = _roots(target)
    assert g in roots
    assert roots == _brute_force_square_roots(_qaut_of_form(target))


def test_k4_check_stays_off_the_mobius_path(monkeypatch):
    # the Klein-four checks and the square-root search run in exponent form;
    # only the four roots found build Mobius matrices, two each
    calls = []
    real = Mobius.__init__

    def counted(self, *args):
        calls.append(args)
        real(self, *args)

    monkeypatch.setattr(Mobius, "__init__", counted)
    assert k4_normal_form_check().ok
    assert len(calls) == 8


# -- compatibility between surface maps and quadric maps ----------------------


def _projection():
    y = RatFunc.var("Y")
    z = RatFunc.var("Z")
    return y * z, z * z


def test_projection_intertwines_swap_root_with_order8_base():
    # the quotient map (Y, Z) -> (Y*Z, Z^2) carries the ruling swap
    # (1/Z, Y) to the order-8 base map (y/z, y^2/z)
    p1, p2 = _projection()
    fy, fz = _coord_funcs(swap_root(1))
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
    fy, fz = _coord_funcs(inv_both())
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
