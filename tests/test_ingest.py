"""JSON ingestion: round trips, accumulation, and the failure taxonomy."""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import enricert
from enricert.cover import family, specialize, specialization_one_param
from enricert.errors import InvariantError, ParseError, SchemaError
from enricert.field import ONE, parse_cyclo
from enricert.ingest import (
    MAX_ACTIONS,
    MAX_DOCUMENT_BYTES,
    MAX_FAMILIES,
    MAX_MAPS,
    ingest,
    load_document,
    serialize_document,
    serialize_family,
)
from enricert.maps import BirMap, deck_flip, family_automorphism, k3_lift
from enricert.moduli import diagonal_base_scaling, homothety
from enricert.poly import MPoly, RatFunc

from _helpers import load_docgen

FIXTURE = Path(enricert.__file__).parent / "fixtures" / "families.json"


def base_doc():
    return {
        "families": [
            {
                "name": "t",
                "kind": "enriques_horikawa",
                "parameters": ["A"],
                "monomials": [
                    {"i": 4, "j": 0, "coeff": {"param": "A", "scalar": "1,0,0,0"}},
                    {"i": 0, "j": 2, "coeff": {"scalar": "-1,0,0,0"}},
                ],
            }
        ],
        "maps": [
            {
                "name": "m",
                "coords": {"w": "i*w/(y^2*z^3)", "y": "1/y", "z": "1/z"},
            }
        ],
    }


# -- round trips --------------------------------------------------------------


def test_builtin_round_trip():
    families = [family(k) for k in (1, 2, 3)]
    maps = [family_automorphism(k) for k in (1, 2, 3)]
    actions = {
        "family1": (homothety(family(1)),),
        "family3": (homothety(family(3)), diagonal_base_scaling()),
    }
    doc = serialize_document(families, maps, actions)
    result = load_document(doc)
    assert list(result.families) == families
    assert [m.label for m in result.maps] == [m.label for m in maps]
    for got, want in zip(result.maps, maps):
        assert got.variables == want.variables
        assert got.coords == want.coords
    assert result.actions["family1"] == actions["family1"]
    assert result.actions["family2"] == ()
    assert result.actions["family3"] == actions["family3"]


def test_shipped_fixture_matches_builtins():
    result = ingest(str(FIXTURE))
    assert list(result.families) == [family(k) for k in (1, 2, 3)]
    labels = [m.label for m in result.maps]
    assert labels == [
        "aut_4_2", "aut_8_4", "aut_8_2", "lift_4_2", "lift_8_4", "deck_flip",
    ]
    for got, want in zip(
        result.maps[3:],
        (k3_lift(1), k3_lift(2), deck_flip()),
    ):
        assert got.coords == want.coords
    assert result.actions["family3"] == (
        homothety(family(3)), diagonal_base_scaling(),
    )


def test_mixed_coefficients_serialize_as_split_entries():
    fam = specialize(family(1), specialization_one_param())
    entry = serialize_family(fam)
    by_pair = {}
    for m in entry["monomials"]:
        by_pair.setdefault((m["i"], m["j"]), []).append(m["coeff"])
    # the (4, 1) coefficient -C - 1 splits into a constant and a C part
    assert {"scalar": "-1,0,0,0"} in by_pair[(4, 1)]
    assert {"param": "C", "scalar": "-1,0,0,0"} in by_pair[(4, 1)]
    rebuilt = load_document({"families": [entry]}).families[0]
    assert rebuilt == fam


def test_repeated_support_pairs_accumulate():
    doc = base_doc()
    doc["families"][0]["monomials"].append(
        {"i": 4, "j": 0, "coeff": {"param": "A", "scalar": "2,0,0,0"}}
    )
    fam = load_document(doc).families[0]
    assert str(fam.monomial_coefficient(4, 0)) == "3*A"


def test_a_coefficient_past_the_digit_bound_is_refused_by_the_serializer():
    # Repeated (0, 2) pairs add up: -1 and one 4,300-digit scalar still
    # round trip; with eleven of them the coefficient has 4,302 digits, and
    # its text would be a digit count that ingest cannot read back.
    nines = {"i": 0, "j": 2, "coeff": {"scalar": "9" * 4300}}
    doc = base_doc()
    doc["families"][0]["monomials"].append(nines)
    result = load_document(doc)
    again = load_document(serialize_document(result.families, result.maps))
    assert again.families == result.families
    doc["families"][0]["monomials"] += [nines] * 10
    fam = load_document(doc).families[0]
    assert str(fam.monomial_coefficient(0, 2)) == "(<4302-digit integer>)"
    refusal = r"^family t monomial \(0, 2\): a coefficient has more than 4300 digits"
    with pytest.raises(ValueError, match=refusal):
        serialize_document([fam])
    # a map built through the API is refused the same way
    y = RatFunc.var("y")
    phi = BirMap(("w", "y", "z"), {"w": RatFunc.var("w"), "y": 10 ** 4300 * y, "z": y}, "big")
    with pytest.raises(ValueError, match=r"^map big coordinate y: a coefficient has more than"):
        serialize_document([], [phi])


# -- schema violations --------------------------------------------------------


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.__setitem__("extra", 1), "unknown keys ['extra']"),
        (lambda d: d.__setitem__("schema", "enricert-input/2"),
         "document: 'schema' must be 'enricert-input/1'"),
        (lambda d: d.__setitem__("schema", 5), "'schema' must be 'enricert-input/1'"),
        (lambda d: d.__setitem__("schema", None), "'schema' must be 'enricert-input/1'"),
        (lambda d: d.__setitem__("families", {}), "'families' must be a list"),
        (lambda d: d.__setitem__("maps", "x"), "'maps' must be a list"),
        (lambda d: d["families"][0].pop("name"), "missing key 'name'"),
        (lambda d: d["families"][0].__setitem__("kind", "abelian"), "kind must be"),
        (
            lambda d: d["families"][0].__setitem__("parameters", ["G"]),
            "unknown parameter 'G'",
        ),
        (
            lambda d: d["families"][0].__setitem__("parameters", ["alpha"]),
            "unknown parameter 'alpha'",
        ),
        (
            lambda d: d["families"][0].__setitem__("monomials", []),
            "'monomials' must be a non-empty list",
        ),
        (
            lambda d: d["families"][0]["monomials"][0].__setitem__("i", True),
            "'i' must be an integer",
        ),
        (
            lambda d: d["families"][0]["monomials"][0].pop("j"),
            "missing key 'j'",
        ),
        (
            lambda d: d["families"][0]["monomials"][0].__setitem__("i", 0)
            or d["families"][0]["monomials"][0].__setitem__("j", 1),
            "support outside 4 <= i+2j <= 8: (0, 1)",
        ),
        (
            lambda d: d["families"][0]["monomials"][0]["coeff"].__setitem__("unit", 1),
            "unknown coeff keys ['unit']",
        ),
        (
            lambda d: d["families"][0]["monomials"][0]["coeff"].__setitem__(
                "param", "B"
            ),
            "undeclared parameter 'B'",
        ),
        (
            lambda d: d["maps"][0].__setitem__("coords", {"w": "w", "y": "y"}),
            "coords keys must be exactly",
        ),
        (
            lambda d: d["maps"][0]["coords"].__setitem__("q", "1"),
            "coords keys must be exactly",
        ),
        (
            # record ids are unique within a run, and a map's ids carry its name
            lambda d: d["maps"].append(copy.deepcopy(d["maps"][0])),
            "maps[1]: duplicate map name 'm'",
        ),
        (
            lambda d: d["families"][0].__setitem__("actions", {}),
            "families[0]: 'actions' must be a list",
        ),
        (
            lambda d: d["families"].append(copy.deepcopy(d["families"][0])),
            "families[1]: duplicate family name 't'",
        ),
    ],
)
def test_schema_violations(mutate, fragment):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(SchemaError) as info:
        load_document(doc)
    assert fragment in str(info.value)


def test_the_schema_key_may_be_absent():
    doc = base_doc()
    assert "schema" not in doc
    without = load_document(doc)
    doc["schema"] = "enricert-input/1"
    assert serialize_document(*load_document(doc)) == serialize_document(*without)


def test_schema_violation_names_location():
    doc = base_doc()
    doc["families"][0]["monomials"][1]["coeff"] = {"scalar": 3}
    with pytest.raises(SchemaError, match=r"families\[0\].monomials\[1\]"):
        load_document(doc)


_ACTION = {"name": "a", "weights": {"A": 1}, "w_square_scale": 0}


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["families"].__setitem__(0, ["t"]),
     "families[0]: family entry must be an object"),
    (lambda d: d["families"][0].__setitem__("actions", [3]),
     "families[0].actions[0]: action entry must be an object"),
    (lambda d: d["maps"].__setitem__(0, "m"), "maps[0]: map entry must be an object"),
    (lambda d: d["families"][0].__setitem__("actions", [dict(_ACTION, name=None)]),
     "families[0].actions[0]: 'name' must be a string"),
    (lambda d: d["families"][0].__setitem__(
        "actions", [{k: v for k, v in _ACTION.items() if k != "name"}]),
     "families[0].actions[0]: missing key 'name'"),
    (lambda d: d["maps"][0].__setitem__("name", 7), "maps[0]: 'name' must be a string"),
    (lambda d: d["maps"][0].pop("name"), "maps[0]: missing key 'name'"),
], ids=[
    "family-not-an-object", "action-not-an-object", "map-not-an-object",
    "action-name-not-a-string", "action-name-missing", "map-name-not-a-string",
    "map-name-missing",
])
def test_every_list_entry_is_an_object_with_a_string_name(mutate, message):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(SchemaError) as info:
        load_document(doc)
    assert str(info.value) == message


def test_duplicate_family_names_rejected():
    doc = base_doc()
    doc["families"].append(copy.deepcopy(doc["families"][0]))
    with pytest.raises(SchemaError, match="duplicate family name 't'"):
        load_document(doc)


def test_duplicate_action_names_rejected():
    doc = base_doc()
    action = {"name": "a", "weights": {"A": 1}, "w_square_scale": 0}
    doc["families"][0]["actions"] = [action, dict(action, weights={"A": 2})]
    with pytest.raises(
        SchemaError, match=r"families\[0\].actions\[1\]: duplicate action name 'a'"
    ):
        load_document(doc)
    # the same action name in two families is fine
    doc["families"][0]["actions"] = [action]
    other = copy.deepcopy(doc["families"][0])
    other["name"] = "u"
    doc["families"].append(other)
    assert [a.name for a in load_document(doc).actions["u"]] == ["a"]


@pytest.mark.parametrize("kind, key", [
    ("enriques_horikawa", "q"),
    ("enriques_horikawa", "w"),
    ("enriques_horikawa", "Y"),
    ("k3_cover", "y"),
])
def test_action_geometric_keys_are_base_coordinates(kind, key):
    doc = base_doc()
    if kind == "k3_cover":
        doc["families"][0] = {
            "name": "c",
            "kind": "k3_cover",
            "parameters": ["A"],
            "monomials": [{"i": 2, "j": 2, "coeff": {"param": "A", "scalar": "1,0,0,0"}}],
        }
    doc["families"][0]["actions"] = [
        {"name": "a", "weights": {"A": 1}, "geometric": {key: "1"}, "w_square_scale": 0}
    ]
    with pytest.raises(
        SchemaError, match=rf"families\[0\].actions\[0\]: geometric key '{key}' is not one of"
    ):
        load_document(doc)


def test_k3_support_message():
    doc = {
        "families": [
            {
                "name": "c",
                "kind": "k3_cover",
                "monomials": [{"i": 5, "j": 1, "coeff": {"scalar": "1,0,0,0"}}],
            }
        ]
    }
    with pytest.raises(SchemaError, match=r"support outside bidegree \(4, 4\): \(5, 1\)"):
        load_document(doc)


def test_action_schema_checks():
    doc = base_doc()
    doc["families"][0]["actions"] = [
        {"name": "a", "weights": {"A": True}, "w_square_scale": 0}
    ]
    with pytest.raises(SchemaError, match="weight of 'A' must be an integer"):
        load_document(doc)
    doc["families"][0]["actions"] = [{"name": "a", "weights": {"A": 1}}]
    with pytest.raises(SchemaError, match="'w_square_scale' must be an integer"):
        load_document(doc)


# -- parse errors -------------------------------------------------------------


def test_scalar_parse_error_carries_location_and_position():
    doc = base_doc()
    doc["families"][0]["monomials"][0]["coeff"]["scalar"] = "1,2,x,0"
    with pytest.raises(ParseError) as info:
        load_document(doc)
    text = str(info.value)
    assert text.startswith("families[0].monomials[0].scalar:")
    assert text.count("(at position") == 1


def test_map_parse_error_carries_location():
    doc = base_doc()
    doc["maps"][0]["coords"]["w"] = "i*w*"
    with pytest.raises(ParseError) as info:
        load_document(doc)
    assert str(info.value).startswith("maps[0].coords.w:")
    assert info.value.position == 4


def test_geometric_parse_error_carries_location():
    doc = base_doc()
    doc["families"][0]["actions"] = [
        {
            "name": "a",
            "weights": {"A": 1},
            "geometric": {"y": "alpha*"},
            "w_square_scale": 0,
        }
    ]
    with pytest.raises(ParseError, match=r"families\[0\].actions\[0\].geometric.y:"):
        load_document(doc)


# -- invariant violations from well-formed documents --------------------------


def test_parity_violation_surfaces_as_invariant_error():
    doc = {
        "families": [
            {
                "name": "c",
                "kind": "k3_cover",
                "monomials": [{"i": 1, "j": 2, "coeff": {"scalar": "1,0,0,0"}}],
            }
        ]
    }
    with pytest.raises(InvariantError, match="invariant under"):
        load_document(doc)


def test_zero_branch_surfaces_as_invariant_error():
    doc = base_doc()
    doc["families"][0]["monomials"] = [
        {"i": 4, "j": 0, "coeff": {"scalar": "0,0,0,0"}}
    ]
    with pytest.raises(InvariantError, match="zero"):
        load_document(doc)


# -- file level ---------------------------------------------------------------


def test_ingest_missing_file():
    with pytest.raises(OSError):
        ingest("/nonexistent/input.json")


def test_ingest_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError, match="not valid JSON"):
        ingest(str(path))


def test_ingest_reads_serialized_file(tmp_path):
    doc = serialize_document([family(2)], [family_automorphism(2)])
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = ingest(str(path))
    assert result.families[0] == family(2)
    assert result.maps[0].coords == family_automorphism(2).coords


# -- the branch against the product-and-sum construction ----------------------


def _summed_branch(entry):
    """The branch as a running sum of one product per monomial entry."""
    base1, base2 = ("y", "z") if entry["kind"] == "enriques_horikawa" else ("Y", "Z")
    branch = MPoly.zero()
    for mono in entry["monomials"]:
        coeff = mono["coeff"]
        term = MPoly.const(parse_cyclo(coeff["scalar"]))
        if "param" in coeff:
            term = term * MPoly.var(coeff["param"])
        term = term * MPoly.var(base1) ** mono["i"] * MPoly.var(base2) ** mono["j"]
        branch = branch + term
    return branch


def _assert_branches_are_summed(doc):
    for fam, entry in zip(load_document(doc).families, doc["families"]):
        want = _summed_branch(entry)
        assert fam.branch == want
        # the same terms in the same order, so later loops visit them alike
        assert list(fam.branch.terms.items()) == list(want.terms.items())


@pytest.fixture(scope="module")
def docgen():
    return load_docgen()


def test_branches_of_generated_documents_are_the_summed_products(docgen):
    for seed in (1, 2, 3):
        for index in (0, 1, 2):
            text, _, _ = docgen.generate(seed, index)
            _assert_branches_are_summed(json.loads(text))
    _assert_branches_are_summed(json.loads(FIXTURE.read_text(encoding="utf-8")))


# Few (i, j, param) triples and scalars that cancel in pairs: entries repeat,
# sums vanish, and a triple can come back after its sum vanished.
_SCALARS = ("1,0,0,0", "-1,0,0,0", "2,0,0,0", "-2,0,0,0", "0,1,0,0", "0,-1,0,0",
            "0,0,0,0", "1/2,0,0,-3")
_ENTRIES = {
    "enriques_horikawa": st.tuples(st.sampled_from([(4, 0), (0, 2), (2, 1), (4, 2)]),
                                   st.sampled_from([None, "A", "B"])),
    "k3_cover": st.tuples(st.sampled_from([(0, 0), (1, 1), (4, 0), (2, 2)]),
                          st.sampled_from([None, "A"])),
}


@st.composite
def _family_entries(draw):
    kind = draw(st.sampled_from(sorted(_ENTRIES)))
    monomials = []
    for (i, j), param in draw(st.lists(_ENTRIES[kind], min_size=1, max_size=12)):
        coeff = {"scalar": draw(st.sampled_from(_SCALARS))}
        if param is not None:
            coeff["param"] = param
        monomials.append({"i": i, "j": j, "coeff": coeff})
    return {"name": "f", "kind": kind, "parameters": ["A", "B"], "monomials": monomials}


@settings(max_examples=150, deadline=None)
@given(_family_entries())
def test_repeated_and_cancelling_entries_build_the_summed_branch(entry):
    doc = {"families": [entry]}
    if _summed_branch(entry).is_zero():
        with pytest.raises(InvariantError, match="branch polynomial is zero"):
            load_document(doc)
    else:
        _assert_branches_are_summed(doc)


def test_an_entry_whose_sum_vanished_comes_back_last():
    doc = base_doc()
    monomials = doc["families"][0]["monomials"]
    a4 = monomials[0]
    monomials[1:1] = [dict(a4, coeff={"param": "A", "scalar": "-1,0,0,0"})]
    monomials.append(a4)
    # A*y^4, -A*y^4, A*y^4, -z^2: the first two cancel, so A*y^4 comes back
    # after -z^2 in the running sum's order
    branch = load_document(doc).families[0].branch
    assert str(branch) == "y^4*A - z^2"
    assert list(branch.terms.values()) == [-ONE, ONE]
    _assert_branches_are_summed(doc)


# -- document bounds ---------------------------------------------------------


def _families(n):
    doc = base_doc()
    entry = doc["families"][0]
    doc["families"] = [dict(entry, name=f"t{k}") for k in range(n)]
    return doc


def _maps(n):
    doc = base_doc()
    entry = doc["maps"][0]
    doc["maps"] = [dict(entry, name=f"m{k}") for k in range(n)]
    return doc


def _actions(n):
    doc = base_doc()
    doc["families"][0]["actions"] = [
        {"name": f"a{k}", "weights": {"A": k}, "w_square_scale": 0} for k in range(n)
    ]
    return doc


@pytest.mark.parametrize(
    "build, count, cap, message",
    [
        (_families, lambda r: len(r.families), MAX_FAMILIES,
         "document: {n} families exceed the cap MAX_FAMILIES = {cap}"),
        (_maps, lambda r: len(r.maps), MAX_MAPS,
         "document: {n} maps exceed the cap MAX_MAPS = {cap}"),
        (_actions, lambda r: len(r.actions["t"]), MAX_ACTIONS,
         "families[0]: {n} actions exceed the cap MAX_ACTIONS = {cap}"),
    ],
    ids=["families", "maps", "actions"],
)
def test_document_lists_are_capped(build, count, cap, message):
    assert count(load_document(build(cap))) == cap
    with pytest.raises(SchemaError) as err:
        load_document(build(cap + 1))
    assert str(err.value) == message.format(n=cap + 1, cap=cap)


def test_generated_documents_are_far_under_the_caps(docgen):
    text, _, _ = docgen.generate(1, 0)
    doc = json.loads(text)
    assert len(text.encode("utf-8")) * 50 < MAX_DOCUMENT_BYTES
    assert len(doc["families"]) * 10 <= MAX_FAMILIES
    assert len(doc["maps"]) * 10 <= MAX_MAPS
    assert max(len(f.get("actions", [])) for f in doc["families"]) * 10 <= MAX_ACTIONS


def _padded(size):
    """The base document as exactly ``size`` bytes, padded with spaces."""
    text = json.dumps(base_doc())
    return text + " " * (size - len(text))


def test_document_bytes_are_capped(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(_padded(MAX_DOCUMENT_BYTES), encoding="utf-8")
    assert ingest(str(path)).families[0].name == "t"
    path.write_text(_padded(MAX_DOCUMENT_BYTES + 1), encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        ingest(str(path))
    assert str(err.value) == (
        f"{path}: more than {MAX_DOCUMENT_BYTES} bytes exceeds the cap "
        f"MAX_DOCUMENT_BYTES = {MAX_DOCUMENT_BYTES}"
    )


def test_a_document_is_decoded_as_a_text_mode_read_decodes_it(tmp_path):
    # newlines translated: the error positions count CR LF as one character
    path = tmp_path / "doc.json"
    path.write_bytes(b'{\r\n"maps": [{"name": "a\rb"}]}')
    with open(path, encoding="utf-8") as fh:
        with pytest.raises(ValueError) as text_mode:
            json.load(fh)
    with pytest.raises(SchemaError) as err:
        ingest(str(path))
    assert str(err.value) == f"{path}: not valid JSON: {text_mode.value}"
