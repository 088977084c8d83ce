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
"families[0] 'c': ...".

The document's three lists (families, maps, and a family's actions) share
one set of rules, stated once in _load_list: the value is a list, it holds
at most its cap (MAX_FAMILIES, MAX_MAPS, MAX_ACTIONS), and no two entries
share a name, since record ids carry the names; each breach is a wrong
shape whose message names the list or the cap.  Names that collide only
across kinds are refused by the certificate, which builds the ids.  A file
over MAX_DOCUMENT_BYTES bytes, which also bounds its literal digits, is a
wrong shape too.
"""

from __future__ import annotations

import io
import json
from collections.abc import Mapping
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, TypeVar

from .cover import BRANCH_SUPPORT, KIND_VARIABLES, SurfaceFamily
from .errors import InvariantError, ParseError, SchemaError
from .field import Cyclo, int_digit_limit, parse_cyclo
from .maps import BirMap
from .moduli import ParameterAction
from .parsing import MAX_DIGITS, parse_expression
from .poly import MPoly, PARAMETERS, VARIABLES

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


def _is_int(value) -> bool:
    """An integer JSON number, not a boolean."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_family_parameter(value) -> bool:
    """A name a family may declare or an action may weight: one of A..F,
    since alpha, the formal scale of the parameter actions, is reserved."""
    return isinstance(value, str) and value in PARAMETERS and value != "alpha"


def _load_list(
    owner: Mapping, key: str, cap: int, where: str, noun: str, load
) -> Dict[str, object]:
    """The entries of owner[key], loaded in order by load(entry, name,
    location) into (name, item) pairs and keyed by name.  The value must be
    a list of at most ``cap`` entries, each an object with a string name,
    and no two entries may share a name.  ``cap`` is MAX_<KEY>, which the
    message over it names."""
    raw = owner.get(key, [])
    _expect(isinstance(raw, list), where, f"{key!r} must be a list")
    _expect(
        len(raw) <= cap, where, f"{len(raw)} {key} exceed the cap MAX_{key.upper()} = {cap}"
    )
    prefix = "" if where == "document" else f"{where}."
    loaded = {}
    for idx, entry in enumerate(raw):
        at = f"{prefix}{key}[{idx}]"
        _expect(isinstance(entry, Mapping), at, f"{noun} entry must be an object")
        name, item = load(entry, _str_field(entry, "name", at), at)
        _expect(name not in loaded, at, f"duplicate {noun} name {name!r}")
        loaded[name] = item
    return loaded


def _str_field(entry: Mapping, key: str, where: str) -> str:
    _expect(key in entry, where, f"missing key {key!r}")
    value = entry[key]
    _expect(isinstance(value, str), where, f"{key!r} must be a string")
    return value


_T = TypeVar("_T")


def _parsed(parse: Callable[[str], _T], text: str, where: str) -> _T:
    """parse(text), with the document location before a parse error."""
    try:
        return parse(text)
    except ParseError as exc:
        raise ParseError(f"{where}: {exc.message}", exc.position) from exc


def _load_family(
    entry: Mapping, name: str, where: str
) -> Tuple[str, Tuple[SurfaceFamily, Tuple[ParameterAction, ...]]]:
    kind = _str_field(entry, "kind", where)
    kinds = tuple(KIND_VARIABLES)
    _expect(kind in kinds, where, f"kind must be one of {kinds}, got {kind!r}")
    params = entry.get("parameters", [])
    _expect(isinstance(params, list), where, "'parameters' must be a list")
    for p in params:
        _expect(_is_family_parameter(p), where, f"unknown parameter {p!r}")
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
            _expect(_is_int(mono[key]), mwhere, f"{key!r} must be an integer")
        i, j = mono["i"], mono["j"]
        _expect((i, j) in support, mwhere, f"support outside {bound}: ({i}, {j})")
        coeff = mono.get("coeff")
        _expect(isinstance(coeff, Mapping), mwhere, "'coeff' must be an object")
        _expect(
            set(coeff) <= {"param", "scalar"},
            mwhere,
            f"unknown coeff keys {sorted(set(coeff) - {'param', 'scalar'})}",
        )
        text = _str_field(coeff, "scalar", mwhere)
        scalar = _parsed(parse_cyclo, text, f"{mwhere}.scalar")
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

    actions = _load_list(
        entry, "actions", MAX_ACTIONS, where, "action",
        lambda raw, action, at: _load_action(raw, action, at, (base1, base2)),
    )
    return name, (fam, tuple(actions.values()))


def _load_action(
    entry: Mapping, name: str, where: str, bases: Tuple[str, str]
) -> Tuple[str, ParameterAction]:
    weights = entry.get("weights")
    _expect(isinstance(weights, Mapping), where, "'weights' must be an object")
    for p, wgt in weights.items():
        _expect(_is_family_parameter(p), where, f"weight names unknown parameter {p!r}")
        _expect(_is_int(wgt), where, f"weight of {p!r} must be an integer")
    geometric_raw = entry.get("geometric", {})
    _expect(isinstance(geometric_raw, Mapping), where, "'geometric' must be an object")
    geometric = {}
    for var, text in geometric_raw.items():
        _expect(var in bases, where, f"geometric key {var!r} is not one of {bases}")
        _expect(isinstance(text, str), where, f"geometric[{var!r}] must be a string")
        geometric[var] = _parsed(parse_expression, text, f"{where}.geometric.{var}")
    scale = entry.get("w_square_scale")
    _expect(_is_int(scale), where, "'w_square_scale' must be an integer")
    return name, ParameterAction(name, dict(weights), geometric, scale)


def _load_map(entry: Mapping, name: str, where: str) -> Tuple[str, BirMap]:
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
        v: _parsed(parse_expression, _str_field(coords, v, f"{where}.coords"),
                   f"{where}.coords.{v}")
        for v in variables
    }
    try:
        phi = BirMap(variables, parsed, label=name)
    except InvariantError as exc:
        raise InvariantError(f"{where} {name!r}: {exc}") from exc
    # an empty name is labelled "map", and the label names the records
    return phi.label, phi


def load_document(document: Mapping) -> IngestResult:
    """Build domain objects from an already-parsed JSON document."""
    _expect(isinstance(document, Mapping), "document", "top level must be an object")
    unknown = set(document) - {"schema", "families", "maps"}
    _expect(not unknown, "document", f"unknown keys {sorted(unknown)}")
    _expect(
        document.get("schema", _SCHEMA) == _SCHEMA, "document", f"'schema' must be {_SCHEMA!r}"
    )
    families = _load_list(
        document, "families", MAX_FAMILIES, "document", "family", _load_family
    )
    maps = _load_list(document, "maps", MAX_MAPS, "document", "map", _load_map)
    return IngestResult(
        tuple(fam for fam, _ in families.values()),
        tuple(maps.values()),
        {name: fam_actions for name, (_, fam_actions) in families.items()},
    )


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

def _readable(value, where: str):
    """``value``, refused with ValueError when it has a coefficient numerator
    or denominator of more digits than ingest reads back: the int limit, past
    which its text is a digit count, or the parser's MAX_DIGITS."""
    limit = min(int_digit_limit() or MAX_DIGITS, MAX_DIGITS)
    height = value.height()
    # below 3.32 * limit bits a height is under 10^limit, unpowered
    if height.bit_length() > 3.32 * limit and height >= 10 ** limit:
        raise ValueError(
            f"{where}: a coefficient has more than {limit} digits, "
            "which ingest cannot read back"
        )
    return value


def _coeff_entries(fam: SurfaceFamily, i: int, j: int) -> List[Dict[str, object]]:
    """Split the (i, j) coefficient into one entry per scalar / parameter part."""
    where = f"family {fam.name} monomial ({i}, {j})"
    coeff = _readable(fam.monomial_coefficient(i, j), where)
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
    fam: SurfaceFamily, actions: Tuple[ParameterAction, ...]
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
            v: str(_readable(action.geometric[v], f"action {action.name} geometric {v}"))
            for v in sorted(action.geometric)
        },
        "w_square_scale": action.w_square_scale,
    }


def serialize_map(phi: BirMap) -> Dict[str, object]:
    return {
        "name": phi.label,
        "coords": {
            v: str(_readable(phi.coords[v], f"map {phi.label} coordinate {v}"))
            for v in phi.variables
        },
    }


def serialize_document(
    families,
    maps,
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
