"""Deterministic verification certificates.

Every check the engine performs is a row of a declarative table: an
identifier, a check group, a family tag, a one sentence statement of the
claim, and the body that checks it.  A run runs every row in the one
fixed declared order and makes each a small record: the row's identity
and statement, the inputs used, a pass/fail/info result, and a value or a
failure witness.  The command-line filters then keep a subset of those
records for the Certificate.  The bodies of one run share a context that
builds each family, map, cover, invariance result, action check and form
ratio once.  A failing check never stops the run, whatever it raises.
Serialization is plain JSON with no timestamps, so identical inputs give
byte-identical certificates; the shipped golden file pins the built-in run.
The record shape is fixed, so to_json writes it directly, byte-identical to
json.dumps(..., indent=2) of the same object, whose indented form runs the
pure-Python encoder.
"""

from __future__ import annotations

from functools import partial
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import __version__
from .classify import RULE_STATEMENTS, admissible_pairs, allowed_orders
from .cover import (
    BUILTIN_FAMILIES,
    ENRIQUES,
    SurfaceFamily,
    epsilon_fixed_point_free,
    family,
    horikawa_support,
    k3_cover,
    specialization_one_param,
    specialization_to_family2,
    specialize,
)
from .errors import SchemaError
from .field import Cyclo, ONE, SQRT_M1, root_of_unity_order
from .forms import bitwoform_pullback_ratio, index_of, k3_twoform_ratio
from .lattices import (
    FixedCurveData,
    K3_B2,
    holomorphic_lefschetz_case_a,
    holomorphic_lefschetz_case_b,
    hyperbolic_plane,
    isometries_with_trace,
    moduli_dimension,
    picard_bound_for_82,
    topological_lefschetz_count,
)
from .maps import (
    MAX_ORDER,
    BirMap,
    check_equation_invariance,
    compose,
    deck_flip,
    family_automorphism,
    inv_both,
    k3_lift,
    k4_normal_form_check,
    map_order,
    maps_equal,
    neg_both,
    qaut_fixed_points,
    same_triple,
    swap_root,
)
from . import moduli
from .moduli import (
    ParameterAction,
    check_parameter_action,
    homothety,
    moduli_number,
)

SCHEMA = "enricert-certificate/1"

#: Every check group a record may carry; FILTERABLE_GROUPS lists the ones the
#: command line can select.
CHECK_GROUPS = (
    "construction",
    "invariance",
    "order",
    "index",
    "cover",
    "moduli",
    "lefschetz",
    "lattice",
    "classification",
)

FILTERABLE_GROUPS = ("invariance", "order", "index", "cover", "moduli")


class CheckRecord:
    """One verified (or failed, or merely recorded) claim."""

    __slots__ = ("id", "group", "family", "result", "inputs", "value",
                 "witness", "statement")

    def __init__(
        self,
        id: str,
        group: str,
        family: Optional[int],
        result: str,
        inputs: Dict[str, str],
        value: Optional[str],
        witness: Optional[str],
        statement: str,
    ):
        if group not in CHECK_GROUPS:
            raise ValueError(f"unknown check group {group!r}")
        if result not in ("pass", "fail", "info"):
            raise ValueError(f"unknown result {result!r}")
        if not statement:
            raise ValueError(f"record {id!r} carries no statement")
        self.id = id
        self.group = group
        self.family = family
        self.result = result
        self.inputs = dict(inputs)
        self.value = value
        self.witness = witness
        self.statement = statement

    @property
    def failed(self) -> bool:
        return self.result == "fail"

    def _json(self) -> str:
        """The record as json.dumps(..., indent=2) writes it in the records
        array: an object of the fields in slot order, inputs in their
        order."""
        inputs = ",\n".join(f"        {_quote(k)}: {_quote(v)}" for k, v in self.inputs.items())
        inputs = f"{{\n{inputs}\n      }}" if inputs else "{}"
        family = "null" if self.family is None else self.family
        return (
            f'    {{\n      "id": {_quote(self.id)},\n      "group": {_quote(self.group)},\n'
            f'      "family": {family},\n      "result": {_quote(self.result)},\n'
            f'      "inputs": {inputs},\n      "value": {_null_or_quote(self.value)},\n'
            f'      "witness": {_null_or_quote(self.witness)},\n'
            f'      "statement": {_quote(self.statement)}\n    }}'
        )

    def __repr__(self) -> str:
        return f"CheckRecord({self.id}: {self.result})"


def _null_or_quote(text: Optional[str]) -> str:
    return "null" if text is None else _quote(text)


class Certificate:
    """An ordered bundle of check records with an overall verdict."""

    def __init__(self, records: List[CheckRecord]):
        self.records = list(records)

    @property
    def overall(self) -> str:
        return "fail" if any(r.failed for r in self.records) else "pass"

    @property
    def first_failure(self) -> Optional[CheckRecord]:
        for r in self.records:
            if r.failed:
                return r
        return None

    def to_json(self) -> str:
        """The certificate as json.dumps(..., indent=2) writes the object of
        schema, engine_version, overall and records, plus a newline, written
        directly: every string is quoted by the encoder json.dumps uses."""
        records = ",\n".join(r._json() for r in self.records)
        records = f"[\n{records}\n  ]" if records else "[]"
        return (
            f'{{\n  "schema": {_quote(SCHEMA)},\n  "engine_version": {_quote(__version__)},\n'
            f'  "overall": {_quote(self.overall)},\n  "records": {records}\n}}\n'
        )

    def __repr__(self) -> str:
        return f"Certificate({len(self.records)} records, {self.overall})"


#: What a check body returns: result, inputs, value, witness.
Outcome = Tuple[str, Dict[str, str], Optional[str], Optional[str]]


class _Row(NamedTuple):
    """One declared check.  ``fn`` computes its outcome from the run's
    context, or returns None when the check does not apply, so no record is
    made; an info row has no ``fn`` and records its statement with
    ``inputs``."""

    id: str
    group: str
    family: Optional[int]
    statement: str
    fn: Optional[Callable[["_Context"], Optional[Outcome]]] = None
    inputs: Optional[Dict[str, str]] = None


class _Context:
    """The objects the checks of one run share, each computed on first use.

    Entries are keyed by the computing function and the identities of its
    arguments; an entry keeps its arguments alive, so no identity is reused
    within the run.  A computation that raises is not retried: its entry
    holds the exception, which every later use raises again.  Package
    functions are looked up when called, never captured, so a rebinding of
    the module's names takes effect.
    """

    def __init__(self):
        self._memo = {}

    def _once(self, fn, *args):
        key = (fn,) + tuple(map(id, args))
        if key not in self._memo:
            try:
                self._memo[key] = (args, fn(*args), None)
            except Exception as exc:
                # without its traceback the entry keeps none of the failed
                # computation's frames, or their intermediate values, alive
                self._memo[key] = (args, None, exc.with_traceback(None))
        _, value, failure = self._memo[key]
        if failure is not None:
            raise failure
        return value

    def family(self, k: int) -> SurfaceFamily:
        return self._once(family, k)

    def automorphism(self, k: int) -> BirMap:
        return self._once(family_automorphism, k)

    def cover(self, fam: SurfaceFamily) -> SurfaceFamily:
        return self._once(k3_cover, fam)

    def invariance(self, fam: SurfaceFamily, phi: BirMap):
        return self._once(check_equation_invariance, fam, phi)

    def holders(self, phi: BirMap, families) -> List[SurfaceFamily]:
        """The families whose defining relation phi preserves, in order.

        This alone decides which families a map preserves.  A family whose
        check raises is not a holder: the failure stays memoized, and the
        families after it are still checked.
        """
        found = []
        for fam in families:
            try:
                if self.invariance(fam, phi).holds:
                    found.append(fam)
            except Exception:
                continue
        return found

    def ratio(self, fam: SurfaceFamily, phi: BirMap) -> Cyclo:
        """The constant phi multiplies the bi-2-form of an Enriques family,
        or the 2-form of a K3 cover, by."""
        form = bitwoform_pullback_ratio if fam.kind == ENRIQUES else k3_twoform_ratio
        return self._once(form, fam, phi, self.invariance(fam, phi))

    def biform(self, k: int) -> Cyclo:
        return self.ratio(self.family(k), self.automorphism(k))

    def deck(self) -> BirMap:
        return self._once(deck_flip)

    def lift(self, k: int, flipped: bool = False) -> BirMap:
        """The given lift of the k-th automorphism to the K3 cover, or its
        composition with the deck involution."""
        lift = self._once(k3_lift, k)
        if not flipped:
            return lift
        return self._once(compose, self.deck(), lift)

    def actions(self, k: int) -> List[ParameterAction]:
        return self._once(_builtin_actions, self.family(k), k)

    def action(self, fam: SurfaceFamily, action: ParameterAction):
        return self._once(check_parameter_action, fam, action)


def _require_unique_ids(rows) -> None:
    """Record ids are unique within a run: a repeated row id, which
    document names can make, is a SchemaError."""
    ids = set()
    for row in rows:
        if row.id in ids:
            raise SchemaError(f"two records would share the id {row.id!r}")
        ids.add(row.id)


def _run(rows, ctx: _Context) -> List[CheckRecord]:
    """Run the rows in the declared order, once their ids are known to be
    unique; an exception a check raises becomes its failure."""
    _require_unique_ids(rows)
    records = []
    for row in rows:
        if row.fn is None:
            outcome = ("info", row.inputs or {}, None, None)
        else:
            try:
                outcome = row.fn(ctx)
            except Exception as exc:
                outcome = ("fail", {}, None, f"{type(exc).__name__}: {exc}")
            if outcome is None:
                continue
        records.append(CheckRecord(row.id, row.group, row.family, *outcome, row.statement))
    return records


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


# -- frozen expectations for the built-in run --------------------------------

_EXPECTED_ORDERS = {1: 4, 2: 8, 3: 8}
_EXPECTED_RATIOS = {1: -ONE, 2: -SQRT_M1, 3: -ONE}
_EXPECTED_INDICES = {1: 2, 2: 4, 3: 2}
_EXPECTED_SUPPORT = {1: 12, 2: 12, 3: 6}
_EXPECTED_MODULI = {1: 5, 2: 2, 3: 2}
#: The order of each given lift's K3 2-form constant (see _lift_ratio).
_LIFT_ORDERS = {k: 2 * index for k, index in _EXPECTED_INDICES.items()}
#: The transcendental lattice ranks, input facts about the three surfaces.
_TRANSCENDENTAL_RANKS = {1: 12, 2: 12, 3: 6}
_RANKS_TEXT = ", ".join(map(str, _TRANSCENDENTAL_RANKS.values()))
#: Each built-in family's actions, by the moduli function that builds each.
_ACTION_NAMES = {1: ("homothety",), 2: ("homothety",),
                 3: ("homothety", "diagonal_base_scaling")}
_FAMILY1_CORNERS = ("-A", "C", "-C", "A")


def _builtin_actions(fam: SurfaceFamily, k: int) -> List[ParameterAction]:
    """The k-th family's actions; only the homothety reads the family."""
    return [
        homothety(fam) if name == "homothety" else getattr(moduli, name)()
        for name in _ACTION_NAMES[k]
    ]


# -- check bodies shared by built-in and document records --------------------

def _construction_value(fam: SurfaceFamily) -> str:
    return f"{len(fam.geometric_support())} monomials in {len(fam.parameters)} parameters"


def _invariance_witness(res) -> str:
    return f"even part {res.witness_even}; odd part {res.witness_odd}"


def _invariance(res, inputs) -> Outcome:
    return _verdict(res.holds), inputs, None, None if res.holds else _invariance_witness(res)


def _corner_witness(res) -> Optional[str]:
    if res.free:
        return None
    zero = [key for key, c in res.corners.items() if c.is_zero()]
    return f"vanishing corner coefficient at {', '.join(zero)}"


def _order(phi, inputs, expected: Optional[int] = None) -> Outcome:
    """The exact order when one is expected, else finiteness within
    MAX_ORDER."""
    order = map_order(phi)
    ok = order is not None if expected is None else order == expected
    value = f"none within {MAX_ORDER}" if order is None else str(order)
    return _verdict(ok), inputs, value, None


def _ratio(ok: bool, ratio: Cyclo, inputs) -> Outcome:
    return _verdict(ok), inputs, ratio.encode(), None if ok else str(ratio)


def _action(ctx, fam, action, inputs) -> Outcome:
    res = ctx.action(fam, action)
    value = f"needs sqrt(alpha): {action.needs_square_root()}"
    return _verdict(res.holds), inputs, value, None if res.holds else str(res.witness)


def _moduli(ctx, fam, actions, expected: Optional[int] = None) -> Outcome:
    """The effective parameter count; built-in families expect theirs."""
    # checked lazily, so the first action that fails stops the count
    count = moduli_number(fam, (ctx.action(fam, a) for a in actions))
    inputs = {
        "parameters": str(len(fam.parameters)),
        "actions": ", ".join(a.name for a in actions) or "none",
    }
    return _verdict(expected is None or count == expected), inputs, str(count), None


# -- built-in check bodies ---------------------------------------------------

def _support(ctx) -> Outcome:
    sup = horikawa_support()
    return _verdict(len(sup) == 13), {}, str(len(sup)), None


def _construction(ctx, k) -> Outcome:
    fam = ctx.family(k)
    ok = (
        fam.kind == ENRIQUES
        and len(fam.geometric_support()) == _EXPECTED_SUPPORT[k]
    )
    return _verdict(ok), {"family": fam.name}, _construction_value(fam), None


def _equation_invariance(ctx, k) -> Outcome:
    fam, phi = ctx.family(k), ctx.automorphism(k)
    return _invariance(ctx.invariance(fam, phi), {"family": fam.name, "map": phi.label})


def _map_order(ctx, k) -> Outcome:
    phi, expected = ctx.automorphism(k), _EXPECTED_ORDERS[k]
    return _order(phi, {"map": phi.label, "expected": str(expected)}, expected)


def _square_relation(ctx) -> Outcome:
    square = compose(ctx.automorphism(2), ctx.automorphism(2))
    ok = maps_equal(square, ctx.automorphism(1))
    inputs = {"map": "aut_8_4", "target": "aut_4_2"}
    return _verdict(ok), inputs, None, None if ok else repr(square)


def _biform_ratio(ctx, k) -> Outcome:
    ratio = ctx.biform(k)
    ok = ratio == _EXPECTED_RATIOS[k]
    return _ratio(ok, ratio, {"family": ctx.family(k).name, "map": ctx.automorphism(k).label})


def _biform_index(ctx, k) -> Outcome:
    idx, expected = index_of(ctx.biform(k)), _EXPECTED_INDICES[k]
    return _verdict(idx == expected), {"expected": str(expected)}, str(idx), None


def _multiplicativity(ctx) -> Outcome:
    r2, r1 = ctx.biform(2), ctx.biform(1)
    inputs = {"square_of": r2.encode(), "target": r1.encode()}
    return _verdict(r2 ** 2 == r1), inputs, (r2 ** 2).encode(), None


def _specialization_to_family2(ctx) -> Outcome:
    subst = specialization_to_family2()
    image = specialize(ctx.family(1), subst)
    ok = image.branch == ctx.family(2).branch
    inputs = {p: str(v) for p, v in sorted(subst.items())}
    return _verdict(ok), inputs, None, None if ok else str(image.branch)


def _specialization_one_parameter(ctx) -> Outcome:
    subst = specialization_one_param()
    image = specialize(ctx.family(1), subst)
    ok = image.parameters == ("C",) and not image.branch.is_zero()
    inputs = {p: str(v) for p, v in sorted(subst.items())}
    return _verdict(ok), inputs, f"{len(image.parameters)} parameter", None


def _k3_cover(ctx, k) -> Outcome:
    """The cover's bidegree; SurfaceFamily refuses a K3 branch past
    bidegree (4, 4) or not invariant under (Y, Z) -> (-Y, -Z), so a cover
    that is built passes."""
    fam = ctx.family(k)
    g = ctx.cover(fam).branch
    value = f"bidegree ({g.degree_in('Y')}, {g.degree_in('Z')})"
    return "pass", {"family": fam.name}, value, None


def _bis_condition(ctx, k) -> Outcome:
    """Condition k on the cover of family k: the given lift of the k-th
    automorphism preserves W^2 = g, which is the condition once (phi*W)^2
    is multiplied out."""
    cov = ctx.cover(ctx.family(k))
    return _invariance(ctx.invariance(cov, ctx.lift(k)), {"cover": cov.name})


def _freeness(ctx, k) -> Outcome:
    fam = ctx.family(k)
    res = epsilon_fixed_point_free(ctx.cover(fam))
    corners = tuple(str(c) for c in res.corners.values())
    ok = res.free and (k != 1 or corners == _FAMILY1_CORNERS)
    value = "; ".join(f"{key} = {c}" for key, c in res.corners.items())
    return _verdict(ok), {"family": fam.name}, value, _corner_witness(res)


def _deck_ratio(ctx) -> Outcome:
    ratio = ctx.ratio(ctx.cover(ctx.family(1)), ctx.deck())
    return _ratio(ratio == -ONE, ratio, {"map": "deck_flip"})


def _lift_ratio(ctx, k) -> Outcome:
    """The lift's constant squares to the bi-2-form ratio downstairs, so it
    is a root of unity of twice the index."""
    lift = ctx.lift(k)
    ratio = ctx.ratio(ctx.cover(ctx.family(k)), lift)
    down = ctx.biform(k)
    ok = ratio ** 2 == down and root_of_unity_order(ratio) == _LIFT_ORDERS[k]
    return _ratio(ok, ratio, {"lift": lift.label, "square_target": down.encode()})


def _flipped_lift_ratio(ctx, k) -> Outcome:
    cov = ctx.cover(ctx.family(k))
    base = ctx.ratio(cov, ctx.lift(k))
    flipped_lift = ctx.lift(k, flipped=True)
    flipped = ctx.ratio(cov, flipped_lift)
    ok = flipped == -base
    return _ratio(ok, flipped, {"lift": flipped_lift.label})


def _k4_normal_form(ctx) -> Outcome:
    res = k4_normal_form_check()
    value = (
        f"{len(res.roots)} monomial square roots, "
        f"{len(res.direct_roots)} ruling-preserving"
    )
    witness = None
    if not res.ok:
        witness = (
            f"klein_ok={res.klein_ok} candidates_ok={res.candidates_ok} "
            f"roots={res.roots}"
        )
    return _verdict(res.ok), {"target": "double inversion"}, value, witness


def _fixed_points(ctx, build, expected) -> Outcome:
    g = build()
    data = qaut_fixed_points(g)
    ok = (
        data.count == expected
        and data.count == topological_lefschetz_count(g.ns_trace())
        and not data.parabolic
    )
    return _verdict(ok), {"trace": str(g.ns_trace())}, str(data.count), None


def _lefschetz_case_b(ctx) -> Outcome:
    n_plus = holomorphic_lefschetz_case_b(1)
    n_minus = holomorphic_lefschetz_case_b(-1)
    ok = n_plus == 4 and n_minus == 4
    return _verdict(ok), {"eigenvalues": "i and -i"}, str(n_plus), None


def _lefschetz_case_a(ctx) -> Outcome:
    curve = FixedCurveData(9, 16)
    sides = [holomorphic_lefschetz_case_a(sign, curve) for sign in (1, -1)]
    ok = not any(equal for _, _, equal in sides)
    lhs, rhs, _ = sides[0]
    return _verdict(ok), {"genus": "9", "self_intersection": "16"}, f"{lhs} vs {rhs}", None


def _lattice_u2(ctx) -> Outcome:
    lat = hyperbolic_plane(2)
    ok = lat.invariants() == (2, -4)
    value = f"rank {lat.rank}, det {lat.determinant()}"
    return _verdict(ok), {"gram": "((0, 2), (2, 0))"}, value, None


def _lattice_trace2(ctx) -> Outcome:
    found = isometries_with_trace(hyperbolic_plane(2), 2, 2)
    ok = found == [((1, 0), (0, 1))]
    inputs = {"trace": "2", "entry_bound": "2"}
    return _verdict(ok), inputs, f"{len(found)} isometry", None if ok else str(found)


def _builtin_action(ctx, k, i) -> Outcome:
    action = ctx.actions(k)[i]
    inputs = {
        "weights": ", ".join(f"{p}: {w}" for p, w in sorted(action.weights.items())),
        "w_square_scale": str(action.w_square_scale),
    }
    return _action(ctx, ctx.family(k), action, inputs)


def _moduli_number(ctx, k) -> Outcome:
    return _moduli(ctx, ctx.family(k), ctx.actions(k), _EXPECTED_MODULI[k])


def _moduli_dimension(ctx, k) -> Outcome:
    rank_t, n = _TRANSCENDENTAL_RANKS[k], _LIFT_ORDERS[k]
    d = moduli_dimension(rank_t, n)
    inputs = {"rank_t": str(rank_t), "eigenvalue_order": str(n)}
    return _verdict(d == _EXPECTED_MODULI[k]), inputs, str(d), None


def _picard(ctx) -> Outcome:
    bound = picard_bound_for_82()
    ok = bound == 16 and K3_B2 - bound == 6
    value = f"picard rank >= {bound}, transcendental rank <= {K3_B2 - bound}"
    return _verdict(ok), {"configuration": "4*A3 + 2*A1 + ample class"}, value, None


def _admissible_pairs(ctx) -> Outcome:
    out = admissible_pairs()
    ok = out.pairs == [(4, 2), (8, 2), (8, 4)]
    value = ", ".join(f"({n}, {i})" for n, i in out.pairs)
    return _verdict(ok), {"candidates": "n = I*m, I in {2, 4, 8}, m <= 6"}, value, None


def _pruning_trace(ctx) -> Outcome:
    out = admissible_pairs()
    candidates = {(i * m, i) for i in (2, 4, 8) for m in range(1, 7)}
    pruned = {p.pair for p in out.trace}
    ok = (
        pruned | set(out.pairs) == candidates
        and not (pruned & set(out.pairs))
        and all(p.rule in RULE_STATEMENTS for p in out.trace)
    )
    trace_str = "; ".join(
        f"({p.pair[0]}, {p.pair[1]}): {p.rule}" for p in out.trace
    )
    return _verdict(ok), {"trace": trace_str}, str(len(out.trace)), None


def _allowed_orders(ctx) -> Outcome:
    orders = allowed_orders()
    ok = orders == [1, 2, 3, 4, 5, 6, 8]
    return _verdict(ok), {}, ", ".join(str(n) for n in orders), None


# -- the built-in check table, in the declared order --------------------------

# Map builders are called, not captured, so each check finds the package
# functions the module names at run time.
_FIXED_POINT_CASES = (
    ("fixed-points-double-negation", lambda: neg_both(), 4,
     "(Y, Z) -> (-Y, -Z)"),
    ("fixed-points-double-inversion", lambda: inv_both(), 4,
     "(Y, Z) -> (1/Y, 1/Z)"),
    ("fixed-points-product", lambda: neg_both().compose(inv_both()), 4,
     "(Y, Z) -> (-1/Y, -1/Z)"),
    ("fixed-points-ruling-swap", lambda: swap_root(1), 2,
     "(Y, Z) -> (1/Z, Y)"),
)

_BIS_STATEMENTS = {
    1: "The cover branch g satisfies Y^4 * Z^4 * g(1/Y, 1/Z) = -g.",
    2: "The cover branch g satisfies Z^4 * g(1/Z, Y) = i*g.",
}

_BUILTIN_ROWS = (
    _Row("support-size", "construction", None,
         "The admissible branch exponent set {(i, j): 4 <= i + 2j <= 8, "
         "0 <= i, j <= 4} contains exactly 13 monomials.",
         _support),
    *(_Row(f"family-{k}-construction", "construction", k,
           "The branch polynomial is nonzero, affine in its parameters, and "
           "supported inside the admissible exponent set.",
           partial(_construction, k=k))
      for k in BUILTIN_FAMILIES),
    *(_Row(f"equation-invariance-{k}", "invariance", k,
           "Pulling w^2 - z*f back along the map and reducing modulo "
           "w^2 = z*f leaves zero, identically in the parameters.",
           partial(_equation_invariance, k=k))
      for k in BUILTIN_FAMILIES),
    *(_Row(f"map-order-{k}", "order", k,
           f"The automorphism has exact order {_EXPECTED_ORDERS[k]} as a "
           "self-map of the family.",
           partial(_map_order, k=k))
      for k in BUILTIN_FAMILIES),
    _Row("square-relation", "order", 2,
         "The square of the order-8 automorphism equals the order-4 "
         "automorphism inherited along the coefficient specialization.",
         _square_relation),
    *(row for k in BUILTIN_FAMILIES for row in (
        _Row(f"biform-ratio-{k}", "index", k,
             "The automorphism rescales the square of the residue 2-form by "
             f"the constant {_EXPECTED_RATIOS[k]}, independently of all "
             "coordinates and parameters.",
             partial(_biform_ratio, k=k)),
        _Row(f"biform-index-{k}", "index", k,
             "The bi-2-form ratio is a primitive root of unity of order "
             f"{_EXPECTED_INDICES[k]}, the index of the action.",
             partial(_biform_index, k=k)),
    )),
    _Row("ratio-multiplicativity", "index", 2,
         "Squaring the order-8 automorphism's bi-2-form ratio gives the "
         "order-4 automorphism's ratio, matching the square relation "
         "between the maps.",
         _multiplicativity),
    _Row("specialization-to-family-2", "construction", 1,
         "Substituting C = -i*A, E = -i*D, F = -i*B into the six-parameter "
         "branch polynomial yields exactly the three-parameter branch "
         "polynomial of the order-8 index-4 family.",
         _specialization_to_family2),
    _Row("specialization-one-parameter", "construction", 1,
         "Substituting A = 1, B = -C - 1, D = 0, E = 0, F = 1 - C restricts "
         "the six-parameter family to a valid one-parameter subfamily.",
         _specialization_one_parameter),
    *(_Row(f"k3-cover-{k}", "cover", k,
           "Substituting (y, z) = (Y*Z, Z^2) into the branch polynomial and "
           "dividing by Z^4 is an exact polynomial operation; the quotient "
           "has bidegree at most (4, 4) and only even-total-degree terms, "
           "so it is invariant under (Y, Z) -> (-Y, -Z).",
           partial(_k3_cover, k=k))
      for k in BUILTIN_FAMILIES),
    *(_Row(f"bis-condition-{k}", "cover", k, statement, partial(_bis_condition, k=k))
      for k, statement in _BIS_STATEMENTS.items()),
    *(_Row(f"epsilon-freeness-{k}", "cover", k,
           "The base of the deck involution fixes only the four corner "
           "points of the quadric; the corner coefficients of the cover "
           "branch are nonzero polynomials in the parameters, so for "
           "generic members the involution (W, Y, Z) -> (-W, -Y, -Z) is "
           "fixed point free and the quotient is a surface.",
           partial(_freeness, k=k))
      for k in BUILTIN_FAMILIES),
    _Row("k3-deck-ratio", "index", 1,
         "The deck involution multiplies the cover's residue 2-form by -1: "
         "the form is anti-invariant, as an Enriques quotient requires.  "
         "The computation does not depend on which family's cover carries it.",
         _deck_ratio),
    _Row("k3-lift-ratio-1", "index", 1,
         "The given lift of the order-4 automorphism multiplies the cover's "
         "2-form by a constant whose square is the bi-2-form ratio "
         "downstairs.",
         partial(_lift_ratio, k=1)),
    _Row("k3-lift-ratio-1-flipped", "index", 1,
         "Composing the lift with the deck involution negates the 2-form "
         "constant; the two lifts of the automorphism realize both square "
         "roots, and neither is preferred here.",
         partial(_flipped_lift_ratio, k=1)),
    _Row("k3-lift-ratio-2", "index", 2,
         "The given lift of the order-8 automorphism multiplies the cover's "
         "2-form by a primitive 8th root of unity whose square is the "
         "bi-2-form ratio downstairs.",
         partial(_lift_ratio, k=2)),
    _Row("k3-lift-ratio-2-flipped", "index", 2,
         "Composing the order-8 lift with the deck involution negates its "
         "2-form constant, giving the other primitive 8th root with the "
         "same square.",
         partial(_flipped_lift_ratio, k=2)),
    _Row("k4-normal-form", "lattice", None,
         "The double negation and the double inversion of the quadric's "
         "rulings generate a Klein four group; the ruling-swapping maps "
         "(Y, Z) -> (s/Z, s*Y) for s = 1, -1 square to the double inversion "
         "and have order 4; the exhaustive monomial search finds no "
         "ruling-preserving square root and nothing beyond those two maps "
         "and their inverses.",
         _k4_normal_form),
    _Row("k4-monomial-restriction", "lattice", None,
         "The square-root search is exhaustive over monomial maps with "
         "8th-root-of-unity coefficients only; uniqueness within the full "
         "symmetry group of the quadric is used as an input fact, not "
         "rechecked here."),
    *(_Row(rec_id, "lefschetz", None,
           f"The map {coords} has exactly {expected} fixed points on the "
           "quadric, equal to 2 plus its trace on the two ruling classes.",
           partial(_fixed_points, build=build, expected=expected))
      for rec_id, build, expected, coords in _FIXED_POINT_CASES),
    _Row("lefschetz-case-b", "lefschetz", None,
         "If the fixed locus of the order-4 action consists of isolated "
         "points, the holomorphic fixed point identity forces exactly N = 4 "
         "of them, for either choice of the 2-form eigenvalue.",
         _lefschetz_case_b),
    _Row("lefschetz-case-a-false", "lefschetz", None,
         "A pointwise-fixed curve of genus 9 and self-intersection 16 is "
         "incompatible with the holomorphic fixed point identity for the "
         "order-4 action: the two sides evaluate to different field "
         "elements for both eigenvalue choices.",
         _lefschetz_case_a),
    _Row("lattice-u2", "lattice", None,
         "The even bilinear form with Gram matrix ((0, 2), (2, 0)) has rank "
         "2 and determinant -4.",
         _lattice_u2),
    _Row("lattice-trace2-identity", "lattice", None,
         "The identity is the only integral isometry of that form with "
         "trace 2 and entries bounded by 2 in absolute value.",
         _lattice_trace2),
    *(_Row(f"action-{name}-{k}", "moduli", k,
           "The declared parameter rescaling, combined with its base "
           "coordinate change, maps the defining relation to an exact "
           "alpha-power multiple of the relation at the rescaled "
           "parameters.",
           partial(_builtin_action, k=k, i=i))
      for k in BUILTIN_FAMILIES for i, name in enumerate(_ACTION_NAMES[k])),
    *(_Row(f"moduli-number-{k}", "moduli", k,
           "Parameter count minus the rank of the declared identification "
           f"weight matrix leaves {_EXPECTED_MODULI[k]} effective "
           "parameters.",
           partial(_moduli_number, k=k))
      for k in BUILTIN_FAMILIES),
    _Row("side-condition-square-root", "moduli", None,
         "Every declared identification rescales w^2 by an odd power of "
         "alpha, so rescaling w itself requires a square root of alpha; the "
         "root exists over the complex numbers and is recorded, not "
         "constructed, in this field.",
         inputs={"homothety": "alpha^-1", "diagonal_base_scaling": "alpha^1"}),
    _Row("action-completeness-assumption", "moduli", None,
         "The effective parameter counts treat the declared identification "
         "lists as complete; completeness is an input assumption about the "
         "families, not something this engine proves."),
    *(_Row(f"moduli-dimension-{k}", "moduli", k,
           f"A transcendental-type lattice of rank {rank_t} with a "
           f"primitive order-{_LIFT_ORDERS[k]} eigenvalue action gives moduli "
           f"dimension {rank_t}/phi({_LIFT_ORDERS[k]}) - 1 = "
           f"{_EXPECTED_MODULI[k]}.",
           partial(_moduli_dimension, k=k))
      for k, rank_t in _TRANSCENDENTAL_RANKS.items()),
    _Row("transcendental-rank-assumption", "moduli", None,
         f"The lattice ranks {_RANKS_TEXT} feeding the dimension table are input "
         "facts about the three surfaces, recorded rather than recomputed.",
         inputs={"ranks": _RANKS_TEXT}),
    _Row("picard-bound", "moduli", 3,
         "Four A3 configurations, two A1 configurations and the ample class "
         "force 4*3 + 2*1 + 1 = 15 independent algebraic classes on the K3 "
         "cover; the relevant lattice has even rank, so the Picard rank is "
         "at least 16 and the transcendental rank at most 6.",
         _picard),
    _Row("admissible-pairs", "classification", None,
         "Exhaustive pruning of the candidate grid leaves exactly the "
         "(order, index) pairs (4, 2), (8, 2) and (8, 4).",
         _admissible_pairs),
    _Row("pruning-trace", "classification", None,
         "Every excluded candidate pair is eliminated by a named rule whose "
         "full statement ships in the rule table; survivors and exclusions "
         "partition the candidate grid.",
         _pruning_trace),
    _Row("allowed-orders", "classification", None,
         "The possible finite automorphism orders are the semi-symplectic "
         "orders 1 through 6 together with the orders of the admissible "
         "non-semi-symplectic pairs: 1, 2, 3, 4, 5, 6, 8.",
         _allowed_orders),
    _Row("rank-bound-assumption", "classification", None,
         "Excluding index 8 at order 16 uses that the sublattice on which "
         "the deck involution and the induced non-symplectic involution "
         "both act by -1 has rank at least 12, the transcendental rank; "
         "that bound is an input fact recorded here."),
)


def builtin_records(ctx: Optional[_Context] = None) -> List[CheckRecord]:
    """Run every built-in check in the declared order."""
    return _run(_BUILTIN_ROWS, ctx if ctx is not None else _Context())


# -- checks for user-supplied families and maps ------------------------------

def _custom_construction(ctx, fam) -> Outcome:
    return "pass", {"family": fam.name, "kind": fam.kind}, _construction_value(fam), None


def _custom_cover(ctx, fam) -> Outcome:
    cov = ctx.cover(fam)
    g, free = cov.branch, epsilon_fixed_point_free(cov)
    value = f"bidegree ({g.degree_in('Y')}, {g.degree_in('Z')}); free: {free.free}"
    return _verdict(free.free), {"family": fam.name}, value, _corner_witness(free)


def _custom_invariance(ctx, phi, candidates) -> Outcome:
    holders = ctx.holders(phi, candidates)
    witness = None
    if not holders:
        # no candidate holds; the first one's failure, or the exception its
        # check raised, is the witness
        first = candidates[0]
        witness = f"{first.name}: {_invariance_witness(ctx.invariance(first, phi))}"
    inputs = {"map": phi.label, "candidates": ", ".join(f.name for f in candidates)}
    return _verdict(bool(holders)), inputs, ", ".join(f.name for f in holders) or None, witness


def _custom_order(ctx, phi, candidates) -> Optional[Outcome]:
    holders = ctx.holders(phi, candidates)
    if not holders:
        return None
    return _order(phi, {"family": holders[0].name, "map": phi.label})


def _custom_ratio(ctx, phi, candidates) -> Optional[Outcome]:
    holders = ctx.holders(phi, candidates)
    if not holders:
        return None
    fam = holders[0]
    ratio = ctx.ratio(fam, phi)
    order = root_of_unity_order(ratio)
    inputs = {
        "family": fam.name,
        "map": phi.label,
        "root_of_unity_order": "none" if order is None else str(order),
    }
    return _ratio(order is not None, ratio, inputs)


def _document_rows(families, maps, actions) -> List[_Row]:
    """The checks of ingested objects, in four blocks: construction and
    cover per family; per map, invariance against the document's families
    in the same ambient space (the map must preserve at least one); order
    and form ratio on the first family each map preserves, made only when
    it preserves one; declared actions and the resulting effective
    parameter count per family."""
    rows = []
    for fam in families:
        rows.append(_Row(
            f"custom-{fam.name}-construction", "construction", None,
            "The supplied branch polynomial is nonzero, affine in its "
            "declared parameters, and supported inside the bounds of its "
            "kind.",
            partial(_custom_construction, fam=fam)))
        if fam.kind == ENRIQUES:
            rows.append(_Row(
                f"custom-{fam.name}-cover", "cover", None,
                "The double cover substitution divides exactly by Z^4 and "
                "the deck involution acts freely on generic members: all "
                "four corner coefficients are nonzero.",
                partial(_custom_cover, fam=fam)))
    checked = [(phi, [fam for fam in families if same_triple(fam, phi)]) for phi in maps]
    checked = [(phi, candidates) for phi, candidates in checked if candidates]
    for phi, candidates in checked:
        rows.append(_Row(
            f"custom-invariance-{phi.label}", "invariance", None,
            "The supplied map preserves the defining relation of at least "
            "one supplied family in its ambient space; the preserving "
            "families are listed as the value.",
            partial(_custom_invariance, phi=phi, candidates=candidates)))
    for phi, candidates in checked:
        rows.append(_Row(
            f"custom-order-{phi.label}", "order", None,
            f"The supplied map has finite order at most {MAX_ORDER} as a "
            "self-map of the first family it preserves.",
            partial(_custom_order, phi=phi, candidates=candidates)))
        rows.append(_Row(
            f"custom-ratio-{phi.label}", "index", None,
            "The supplied map rescales the (bi-)2-form of the first family "
            "it preserves by a constant root of unity.",
            partial(_custom_ratio, phi=phi, candidates=candidates)))
    for fam in families:
        fam_actions = actions.get(fam.name, [])
        for action in fam_actions:
            rows.append(_Row(
                f"custom-action-{fam.name}-{action.name}", "moduli", None,
                "The declared parameter rescaling maps the supplied "
                "family's relation to an exact alpha-power multiple of "
                "itself at the rescaled parameters.",
                partial(_action, fam=fam, action=action,
                        inputs={"family": fam.name, "action": action.name})))
        if fam.kind == ENRIQUES:
            rows.append(_Row(
                f"custom-moduli-{fam.name}", "moduli", None,
                "Effective parameter count of the supplied family under its "
                "declared identifications.",
                partial(_moduli, fam=fam, actions=fam_actions)))
    return rows


def document_records(
    families, maps, actions, ctx: Optional[_Context] = None
) -> List[CheckRecord]:
    """Run every check of ingested objects, in order."""
    rows = _document_rows(families, maps, actions)
    return _run(rows, ctx if ctx is not None else _Context())


def filter_records(
    records: List[CheckRecord], family: str = "all", check: str = "all"
) -> List[CheckRecord]:
    """Subset selection used by the command line; built-in records carry a
    family tag from BUILTIN_FAMILIES, custom and family-agnostic ones carry
    none and only survive the 'all' family filter.  A family is given as a
    tag or its text; any other family or check group is a ValueError."""
    tag = str(family)
    _require_filters(tag, check)
    return [
        rec for rec in records
        if tag in ("all", str(rec.family)) and check in ("all", rec.group)
    ]


def _require_filters(family: str, check: str) -> None:
    _require_choice("family", family, tuple(map(str, BUILTIN_FAMILIES)))
    _require_choice("check group", check, FILTERABLE_GROUPS)


def _require_choice(what: str, value: str, choices) -> None:
    if value != "all" and value not in choices:
        raise ValueError(f"unknown {what} {value!r}; choose from {', '.join(choices)} or all")


def run_checks(
    family: str = "all",
    check: str = "all",
    document=None,
) -> Certificate:
    """Built-in checks, then checks for a parsed input document; the filters
    keep a subset of the records of the full run.  An unknown filter or a
    repeated document record id is refused before any check runs."""
    _require_filters(str(family), check)
    if document is not None:
        _require_unique_ids(
            _document_rows(document.families, document.maps, document.actions)
        )
    ctx = _Context()
    records = builtin_records(ctx)
    if document is not None:
        records += document_records(
            document.families, document.maps, document.actions, ctx
        )
    return Certificate(filter_records(records, family, check))


def verify_all(document=None) -> Certificate:
    """The full fixed-order run; the golden certificate pins its output."""
    return run_checks(document=document)
