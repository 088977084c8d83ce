"""JSON input documents: families, maps and parameter actions.

The document shape is

    { "families": [ { "name", "kind", "parameters": [...],
                      "monomials": [ {"i", "j", "coeff": {"param", "scalar"}} ],
                      "actions":   [ {"name", "weights", "geometric",
                                      "w_square_scale"} ] } ],
      "maps":     [ { "name", "coords": {"w": ..., "y": ..., "z": ...} } ] }

with scalars in the four-rational field encoding "c0,c1,c2,c3", coordinate
and geometric entries in the expression grammar, and an optional "param" key
making a monomial entry contribute scalar * param * y^i * z^j.  Entries
repeating an (i, j) pair accumulate.  serialize_document inverts ingest up
to that accumulation, so round trips reproduce the same domain objects.

Failure taxonomy: malformed expressions raise ParseError (with a character
position), a document of the wrong shape raises SchemaError, and a
well-formed document describing an invalid object raises the object
constructor's InvariantError.  Parse and invariant errors carry the
document location; an invariant error also carries the entry's name, as in
"families[0] 'c': ...".  A repeated family or map name, or action name
within a family, is a wrong shape: record ids carry these names.

The document is bounded: a file over MAX_DOCUMENT_BYTES bytes (which also
bounds its literal digits), more than MAX_FAMILIES families, more than
MAX_MAPS maps or more than MAX_ACTIONS actions in one family is a wrong
shape whose message names the cap.
"""

from __future__ import annotations

import io
import json
from collections.abc import Mapping
from typing import Dict, List, NamedTuple, Optional, Tuple

from .cover import BRANCH_SUPPORT, KIND_VARIABLES, SurfaceFamily
from .errors import InvariantError, ParseError, SchemaError
from .field import Cyclo, parse_cyclo
from .maps import BirMap
from .moduli import ParameterAction
from .parsing import parse_expression
from .poly import MPoly, PARAMETERS, RatFunc, VARIABLES

#: Largest input file, in bytes.
MAX_DOCUMENT_BYTES = 2 ** 20
#: Most families, maps, and actions of one family, a document may list.
MAX_FAMILIES = 32
MAX_MAPS = 64
MAX_ACTIONS = 32

# The format this module reads and writes; a document may also omit it.
_SCHEMA = "enricert-input/1"


class IngestResult(NamedTuple):
    """Parsed document: families, maps, and actions keyed by family name."""

    families: Tuple[SurfaceFamily, ...]
    maps: Tuple[BirMap, ...]
    actions: Dict[str, Tuple[ParameterAction, ...]]

    def __repr__(self) -> str:
        return (
            f"IngestResult({len(self.families)} families, "
            f"{len(self.maps)} maps)"
        )


def _expect(cond: bool, where: str, what: str) -> None:
    if not cond:
        raise SchemaError(f"{where}: {what}")


def _str_field(entry: Mapping, key: str, where: str) -> str:
    _expect(key in entry, where, f"missing key {key!r}")
    value = entry[key]
    _expect(isinstance(value, str), where, f"{key!r} must be a string")
    return value


def _scalar(entry: Mapping, where: str) -> Cyclo:
    text = _str_field(entry, "scalar", where)
    try:
        return parse_cyclo(text)
    except ParseError as exc:
        raise ParseError(f"{where}.scalar: {exc.message}", exc.position) from exc


def _expression(text: str, where: str) -> RatFunc:
    try:
        return parse_expression(text)
    except ParseError as exc:
        raise ParseError(f"{where}: {exc.message}", exc.position) from exc


def _load_family(entry: Mapping, where: str) -> Tuple[SurfaceFamily, Tuple[ParameterAction, ...]]:
    _expect(isinstance(entry, Mapping), where, "family entry must be an object")
    name = _str_field(entry, "name", where)
    kind = _str_field(entry, "kind", where)
    kinds = tuple(KIND_VARIABLES)
    _expect(kind in kinds, where, f"kind must be one of {kinds}, got {kind!r}")
    params = entry.get("parameters", [])
    _expect(isinstance(params, list), where, "'parameters' must be a list")
    for p in params:
        _expect(
            isinstance(p, str) and p in PARAMETERS and p != "alpha",
            where,
            f"unknown parameter {p!r}",
        )
    monomials = entry.get("monomials")
    _expect(isinstance(monomials, list) and monomials, where,
            "'monomials' must be a non-empty list")

    base1, base2 = KIND_VARIABLES[kind][1:]
    support, bound = BRANCH_SUPPORT[kind]
    entries = []
    for idx, mono in enumerate(monomials):
        mwhere = f"{where}.monomials[{idx}]"
        _expect(isinstance(mono, Mapping), mwhere, "must be an object")
        for key in ("i", "j"):
            _expect(key in mono, mwhere, f"missing key {key!r}")
            _expect(
                isinstance(mono[key], int) and not isinstance(mono[key], bool),
                mwhere,
                f"{key!r} must be an integer",
            )
        i, j = mono["i"], mono["j"]
        _expect((i, j) in support, mwhere, f"support outside {bound}: ({i}, {j})")
        coeff = mono.get("coeff")
        _expect(isinstance(coeff, Mapping), mwhere, "'coeff' must be an object")
        _expect(
            set(coeff) <= {"param", "scalar"},
            mwhere,
            f"unknown coeff keys {sorted(set(coeff) - {'param', 'scalar'})}",
        )
        scalar = _scalar(coeff, mwhere)
        exponents = {base1: i, base2: j}
        if "param" in coeff:
            p = coeff["param"]
            _expect(
                isinstance(p, str) and p in params,
                mwhere,
                f"coeff names undeclared parameter {p!r}",
            )
            exponents[p] = 1
        entries.append((exponents, scalar))

    branch = MPoly.sum_monomials(entries)
    try:
        fam = SurfaceFamily(name, kind, branch, tuple(params))
    except InvariantError as exc:
        raise InvariantError(f"{where} {name!r}: {exc}") from exc

    actions: Dict[str, ParameterAction] = {}
    raw_actions = entry.get("actions", [])
    _expect(isinstance(raw_actions, list), where, "'actions' must be a list")
    _expect(
        len(raw_actions) <= MAX_ACTIONS,
        where,
        f"{len(raw_actions)} actions exceed the cap MAX_ACTIONS = {MAX_ACTIONS}",
    )
    for idx, raw in enumerate(raw_actions):
        action = _load_action(raw, f"{where}.actions[{idx}]", (base1, base2))
        _expect(
            action.name not in actions,
            f"{where}.actions[{idx}]",
            f"duplicate action name {action.name!r}",
        )
        actions[action.name] = action
    return fam, tuple(actions.values())


def _load_action(entry: Mapping, where: str, bases: Tuple[str, str]) -> ParameterAction:
    _expect(isinstance(entry, Mapping), where, "action entry must be an object")
    name = _str_field(entry, "name", where)
    weights = entry.get("weights")
    _expect(isinstance(weights, Mapping), where, "'weights' must be an object")
    for p, wgt in weights.items():
        _expect(
            isinstance(p, str) and p in PARAMETERS and p != "alpha",
            where,
            f"weight names unknown parameter {p!r}",
        )
        _expect(
            isinstance(wgt, int) and not isinstance(wgt, bool),
            where,
            f"weight of {p!r} must be an integer",
        )
    geometric_raw = entry.get("geometric", {})
    _expect(isinstance(geometric_raw, Mapping), where, "'geometric' must be an object")
    geometric = {}
    for var, text in geometric_raw.items():
        _expect(var in bases, where, f"geometric key {var!r} is not one of {bases}")
        _expect(isinstance(text, str), where, f"geometric[{var!r}] must be a string")
        geometric[var] = _expression(text, f"{where}.geometric.{var}")
    scale = entry.get("w_square_scale")
    _expect(
        isinstance(scale, int) and not isinstance(scale, bool),
        where,
        "'w_square_scale' must be an integer",
    )
    return ParameterAction(name, dict(weights), geometric, scale)


def _load_map(entry: Mapping, where: str) -> BirMap:
    _expect(isinstance(entry, Mapping), where, "map entry must be an object")
    name = _str_field(entry, "name", where)
    coords = entry.get("coords")
    _expect(isinstance(coords, Mapping), where, "'coords' must be an object")
    keys = set(coords)
    for variables in KIND_VARIABLES.values():
        if keys == set(variables):
            break
    else:
        triples = " or ".join(str(list(v)) for v in KIND_VARIABLES.values())
        raise SchemaError(
            f"{where}: coords keys must be exactly {triples}, got {sorted(keys)}"
        )
    parsed = {
        v: _expression(_str_field(coords, v, f"{where}.coords"), f"{where}.coords.{v}")
        for v in variables
    }
    try:
        return BirMap(variables, parsed, label=name)
    except InvariantError as exc:
        raise InvariantError(f"{where} {name!r}: {exc}") from exc


def load_document(document: Mapping) -> IngestResult:
    """Build domain objects from an already-parsed JSON document."""
    _expect(isinstance(document, Mapping), "document", "top level must be an object")
    unknown = set(document) - {"schema", "families", "maps"}
    _expect(not unknown, "document", f"unknown keys {sorted(unknown)}")
    _expect(
        document.get("schema", _SCHEMA) == _SCHEMA, "document", f"'schema' must be {_SCHEMA!r}"
    )
    families: List[SurfaceFamily] = []
    actions: Dict[str, Tuple[ParameterAction, ...]] = {}
    raw_families = document.get("families", [])
    _expect(isinstance(raw_families, list), "document", "'families' must be a list")
    _expect(
        len(raw_families) <= MAX_FAMILIES,
        "document",
        f"{len(raw_families)} families exceed the cap MAX_FAMILIES = {MAX_FAMILIES}",
    )
    for idx, entry in enumerate(raw_families):
        fam, fam_actions = _load_family(entry, f"families[{idx}]")
        _expect(
            fam.name not in actions,
            f"families[{idx}]",
            f"duplicate family name {fam.name!r}",
        )
        families.append(fam)
        actions[fam.name] = fam_actions
    maps: Dict[str, BirMap] = {}
    raw_maps = document.get("maps", [])
    _expect(isinstance(raw_maps, list), "document", "'maps' must be a list")
    _expect(
        len(raw_maps) <= MAX_MAPS,
        "document",
        f"{len(raw_maps)} maps exceed the cap MAX_MAPS = {MAX_MAPS}",
    )
    for idx, entry in enumerate(raw_maps):
        phi = _load_map(entry, f"maps[{idx}]")
        _expect(phi.label not in maps, f"maps[{idx}]", f"duplicate map name {phi.label!r}")
        maps[phi.label] = phi
    return IngestResult(tuple(families), tuple(maps.values()), actions)


def ingest(path: str) -> IngestResult:
    """Read and parse a JSON document from a file."""
    with open(path, "rb") as fh:
        raw = fh.read(MAX_DOCUMENT_BYTES + 1)
    if len(raw) > MAX_DOCUMENT_BYTES:
        raise SchemaError(
            f"{path}: more than {MAX_DOCUMENT_BYTES} bytes exceeds the cap "
            f"MAX_DOCUMENT_BYTES = {MAX_DOCUMENT_BYTES}"
        )
    try:
        # decoded as a UTF-8 text-mode read would, newlines included
        document = json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError on a non-UTF-8 byte, and
        # the interpreter's int digit limit on a huge number literal
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError(f"{path}: not valid JSON: nested too deeply") from None
    return load_document(document)


# -- serialization -----------------------------------------------------------

def _coeff_entries(fam: SurfaceFamily, i: int, j: int) -> List[Dict[str, object]]:
    """Split the (i, j) coefficient into one entry per scalar / parameter part."""
    coeff = fam.monomial_coefficient(i, j)
    out: List[Dict[str, object]] = []
    const_term = None
    by_param: Dict[str, Cyclo] = {}
    for e, c in coeff.term_items():
        live = [VARIABLES[pos] for pos, k in enumerate(e) if k]
        if not live:
            const_term = c
        else:
            # affine-linearity leaves exactly one parameter of exponent one
            by_param[live[0]] = c
    if const_term is not None:
        out.append({"i": i, "j": j, "coeff": {"scalar": const_term.encode()}})
    for p in fam.parameters:
        if p in by_param:
            out.append(
                {"i": i, "j": j, "coeff": {"param": p, "scalar": by_param[p].encode()}}
            )
    return out


def serialize_family(
    fam: SurfaceFamily, actions: Tuple[ParameterAction, ...] = ()
) -> Dict[str, object]:
    monomials: List[Dict[str, object]] = []
    for i, j in fam.geometric_support():
        monomials.extend(_coeff_entries(fam, i, j))
    entry: Dict[str, object] = {
        "name": fam.name,
        "kind": fam.kind,
        "parameters": list(fam.parameters),
        "monomials": monomials,
    }
    if actions:
        entry["actions"] = [serialize_action(a) for a in actions]
    return entry


def serialize_action(action: ParameterAction) -> Dict[str, object]:
    return {
        "name": action.name,
        "weights": {p: action.weights[p] for p in sorted(action.weights)},
        "geometric": {
            v: str(action.geometric[v]) for v in sorted(action.geometric)
        },
        "w_square_scale": action.w_square_scale,
    }


def serialize_map(phi: BirMap) -> Dict[str, object]:
    return {
        "name": phi.label,
        "coords": {v: str(phi.coords[v]) for v in phi.variables},
    }


def serialize_document(
    families,
    maps=(),
    actions: Optional[Mapping[str, Tuple[ParameterAction, ...]]] = None,
) -> Dict[str, object]:
    actions = actions or {}
    return {
        "schema": _SCHEMA,
        "families": [
            serialize_family(fam, tuple(actions.get(fam.name, ()))) for fam in families
        ],
        "maps": [serialize_map(phi) for phi in maps],
    }
