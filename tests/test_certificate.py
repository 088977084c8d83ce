"""Certificate assembly: record set, golden output, filters, failure flow."""

import copy
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import enricert
from enricert.certificate import (
    CHECK_GROUPS,
    Certificate,
    CheckRecord,
    FILTERABLE_GROUPS,
    SCHEMA,
    builtin_records,
    document_records,
    filter_records,
    run_checks,
    verify_all,
)
from enricert.cli import main
from enricert.cover import family, k3_cover
from enricert.ingest import ingest, load_document, serialize_document, serialize_family

from _helpers import load_docgen

FIXTURES = Path(enricert.__file__).parent / "fixtures"
PINNED_RUNS = Path(__file__).parent / "data" / "pinned_document_runs.json"

BUILTIN_IDS = [
    "support-size",
    "family-1-construction", "family-2-construction", "family-3-construction",
    "equation-invariance-1", "equation-invariance-2", "equation-invariance-3",
    "map-order-1", "map-order-2", "map-order-3",
    "square-relation",
    "biform-ratio-1", "biform-index-1",
    "biform-ratio-2", "biform-index-2",
    "biform-ratio-3", "biform-index-3",
    "ratio-multiplicativity",
    "specialization-to-family-2", "specialization-one-parameter",
    "k3-cover-1", "k3-cover-2", "k3-cover-3",
    "bis-condition-1", "bis-condition-2",
    "epsilon-freeness-1", "epsilon-freeness-2", "epsilon-freeness-3",
    "k3-deck-ratio",
    "k3-lift-ratio-1", "k3-lift-ratio-1-flipped",
    "k3-lift-ratio-2", "k3-lift-ratio-2-flipped",
    "k4-normal-form", "k4-monomial-restriction",
    "fixed-points-double-negation", "fixed-points-double-inversion",
    "fixed-points-product", "fixed-points-ruling-swap",
    "lefschetz-case-b", "lefschetz-case-a-false",
    "lattice-u2", "lattice-trace2-identity",
    "action-homothety-1", "action-homothety-2", "action-homothety-3",
    "action-diagonal_base_scaling-3",
    "moduli-number-1", "moduli-number-2", "moduli-number-3",
    "side-condition-square-root", "action-completeness-assumption",
    "moduli-dimension-1", "moduli-dimension-2", "moduli-dimension-3",
    "transcendental-rank-assumption",
    "picard-bound",
    "admissible-pairs", "pruning-trace", "allowed-orders",
    "rank-bound-assumption",
]

INFO_IDS = {
    "k4-monomial-restriction",
    "side-condition-square-root",
    "action-completeness-assumption",
    "transcendental-rank-assumption",
    "rank-bound-assumption",
}


@functools.lru_cache(maxsize=1)
def shared_cert():
    # records are read-only for these tests, so one run serves several
    return verify_all()


@functools.lru_cache(maxsize=1)
def shared_builtin_records():
    return tuple(builtin_records())


def test_builtin_run_is_green():
    cert = shared_cert()
    assert cert.overall == "pass"
    assert cert.first_failure is None
    assert [r.id for r in cert.records] == BUILTIN_IDS
    assert sum(1 for r in cert.records if r.result == "info") == 5
    assert all(r.result in ("pass", "info") for r in cert.records)


def test_info_records_are_the_declared_assumptions():
    cert = shared_cert()
    assert {r.id for r in cert.records if r.result == "info"} == INFO_IDS
    for r in cert.records:
        if r.id in INFO_IDS:
            assert r.value is None and r.witness is None


def test_every_record_is_well_formed():
    cert = shared_cert()
    seen = set()
    for r in cert.records:
        assert r.id not in seen
        seen.add(r.id)
        assert r.group in CHECK_GROUPS
        assert r.family in (None, 1, 2, 3)
        assert r.statement.strip()
        assert isinstance(r.inputs, dict)


def test_record_dict_key_order_is_fixed():
    record = shared_cert().records[0]
    assert list(record.as_dict().keys()) == [
        "id", "group", "family", "result", "inputs", "value", "witness",
        "statement",
    ]


def test_golden_certificate_is_byte_identical():
    golden = (FIXTURES / "golden_certificate.json").read_text(encoding="utf-8")
    assert verify_all().to_json() == golden
    # a second run reproduces the bytes: no clocks, no iteration-order leaks
    assert verify_all().to_json() == golden


# any text: non-ASCII, control characters, quotes, backslashes and lone
# surrogates included
_texts = st.text(st.characters(exclude_categories=()), max_size=12) | st.sampled_from(
    ["", '"', "\\", "\n\t\x00\x1f\x7f", "\ud800", "\udfff\u00e9\u2028", "\U0001f600"]
)
_records = st.builds(
    CheckRecord,
    id=_texts,
    group=st.sampled_from(CHECK_GROUPS),
    family=st.none() | st.integers(),
    result=st.sampled_from(["pass", "fail", "info"]),
    inputs=st.dictionaries(_texts, _texts, max_size=3),
    value=st.none() | _texts,
    witness=st.none() | _texts,
    statement=_texts.filter(bool),
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(_records, max_size=4))
@example([])
def test_to_json_is_json_dumps_of_the_dict(records):
    cert = Certificate(records)
    assert cert.to_json() == json.dumps(cert.as_dict(), indent=2) + "\n"


@pytest.mark.parametrize("seed", ["0", "1"])
def test_golden_bytes_do_not_depend_on_the_hash_seed(seed):
    golden = (FIXTURES / "golden_certificate.json").read_text(encoding="utf-8")
    env = dict(os.environ, PYTHONHASHSEED=seed)
    root = str(Path(enricert.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (root, env.get("PYTHONPATH"))))
    code = "import sys, enricert; sys.stdout.write(enricert.verify_all().to_json())"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden


def test_a_run_certifies_each_pair_once_and_builds_each_cover_once(monkeypatch):
    import enricert.certificate as certificate
    import enricert.cover as cover
    import enricert.forms as forms

    pairs, covers = [], []

    def counted(calls, key, real):
        def wrapper(*args):
            calls.append(key(*args))
            return real(*args)
        return wrapper

    def pair_key(fam, phi):
        return fam.kind, str(fam.branch), tuple(str(phi.coords[v]) for v in phi.variables)

    invariance = counted(pairs, pair_key, certificate.check_equation_invariance)
    monkeypatch.setattr(certificate, "check_equation_invariance", invariance)
    monkeypatch.setattr(forms, "check_equation_invariance", invariance, raising=False)
    k3 = counted(covers, lambda fam: str(fam.branch), cover.k3_cover)
    monkeypatch.setattr(certificate, "k3_cover", k3)
    monkeypatch.setattr(cover, "k3_cover", k3)
    assert verify_all().overall == "pass"
    assert len(pairs) == len(set(pairs)) == 8
    assert len(covers) == len(set(covers)) == 3


def test_builtin_and_generated_runs_never_reach_the_ratfunc_bodies(monkeypatch):
    # every invariance check and form ratio of these runs is of a monomial
    # map, so each takes its short path; the RatFunc bodies are fallbacks
    import enricert.forms as forms
    import enricert.maps as maps

    doc = load_document(json.loads(load_docgen().generate(1, 0)[0]))
    want = [verify_all().to_json(), verify_all(document=doc).to_json()]

    def refuse(*args):
        raise AssertionError("a RatFunc body ran")

    monkeypatch.setattr(maps, "_invariance_by_ratfuncs", refuse)
    monkeypatch.setattr(forms, "_bitwoform_by_ratfuncs", refuse)
    monkeypatch.setattr(forms, "_k3_twoform_by_ratfuncs", refuse)
    assert [verify_all().to_json(), verify_all(document=doc).to_json()] == want


def test_certificate_envelope():
    data = json.loads(shared_cert().to_json())
    assert list(data.keys()) == ["schema", "engine_version", "overall", "records"]
    assert data["schema"] == SCHEMA
    assert data["engine_version"] == enricert.__version__
    assert data["overall"] == "pass"


def test_record_constructor_validation():
    with pytest.raises(ValueError, match="group"):
        CheckRecord("x", "nonsense", None, "pass", {}, None, None, "s")
    with pytest.raises(ValueError, match="result"):
        CheckRecord("x", "order", None, "maybe", {}, None, None, "s")
    with pytest.raises(ValueError, match="statement"):
        CheckRecord("x", "order", None, "pass", {}, None, None, "")


def test_overall_fails_on_any_failing_record():
    good = CheckRecord("a", "order", None, "pass", {}, None, None, "s")
    bad = CheckRecord("b", "order", None, "fail", {}, None, "w", "s")
    note = CheckRecord("c", "order", None, "info", {}, None, None, "s")
    cert = Certificate([good, bad, note])
    assert cert.overall == "fail"
    assert cert.first_failure is bad
    assert Certificate([good, note]).overall == "pass"


# -- filters ------------------------------------------------------------------


def test_filter_by_family():
    records = filter_records(list(shared_builtin_records()), family="2")
    assert records and all(r.family == 2 for r in records)
    assert {"map-order-2", "biform-index-2", "moduli-dimension-2"} <= {
        r.id for r in records
    }


def test_filter_by_check_group():
    records = filter_records(list(shared_builtin_records()), check="invariance")
    assert [r.id for r in records] == [
        "equation-invariance-1", "equation-invariance-2", "equation-invariance-3",
    ]
    for group in FILTERABLE_GROUPS:
        subset = filter_records(list(shared_builtin_records()), check=group)
        assert subset and all(r.group == group for r in subset)


def test_filter_combines_family_and_check():
    records = filter_records(list(shared_builtin_records()), family="3", check="moduli")
    assert records and all(r.family == 3 and r.group == "moduli" for r in records)


def test_filter_rejects_unfilterable_group():
    with pytest.raises(ValueError, match="unknown check group"):
        filter_records(list(shared_builtin_records()), check="classification")


def test_run_checks_applies_filters():
    cert = run_checks(family="1", check="order")
    assert cert.overall == "pass"
    assert [r.id for r in cert.records] == ["map-order-1"]


CLI_PAIRS = [
    (family, check)
    for family in ("all", "1", "2", "3")
    for check in ("all",) + FILTERABLE_GROUPS
    if (family, check) != ("all", "all")
]


def _selected(family, check, document=None):
    return [r.as_dict() for r in run_checks(family, check, document).records]


def _filtered(records, family, check):
    return [r.as_dict() for r in filter_records(list(records), family, check)]


@pytest.mark.parametrize("family,check", CLI_PAIRS)
def test_filtered_run_equals_filtering_the_full_run(family, check):
    assert len(CLI_PAIRS) == 23
    want = _filtered(shared_cert().records, family, check)
    assert _selected(family, check) == want


# -- document records ---------------------------------------------------------


def test_fixture_document_records():
    doc = ingest(str(FIXTURES / "families.json"))
    cert = verify_all(document=doc)
    assert cert.overall == "pass"
    custom = [r.id for r in cert.records if r.id.startswith("custom-")]
    assert custom == [
        "custom-family1-construction", "custom-family1-cover",
        "custom-family2-construction", "custom-family2-cover",
        "custom-family3-construction", "custom-family3-cover",
        "custom-invariance-aut_4_2",
        "custom-invariance-aut_8_4",
        "custom-invariance-aut_8_2",
        "custom-order-aut_4_2", "custom-ratio-aut_4_2",
        "custom-order-aut_8_4", "custom-ratio-aut_8_4",
        "custom-order-aut_8_2", "custom-ratio-aut_8_2",
        "custom-action-family1-homothety", "custom-moduli-family1",
        "custom-action-family2-homothety", "custom-moduli-family2",
        "custom-action-family3-homothety",
        "custom-action-family3-diagonal_base_scaling",
        "custom-moduli-family3",
    ]
    # built-ins precede the custom block unchanged
    assert [r.id for r in cert.records[: len(BUILTIN_IDS)]] == BUILTIN_IDS


def _fixture_doc_dict():
    doc = ingest(str(FIXTURES / "families.json"))
    return json.loads((FIXTURES / "families.json").read_text(encoding="utf-8")), doc


def _two_broken_maps_doc():
    raw, _ = _fixture_doc_dict()
    corrupted = copy.deepcopy(raw)
    # break two maps independently: both drop their unit factor
    corrupted["maps"][0]["coords"]["w"] = "w/(y^2*z^3)"
    corrupted["maps"][1]["coords"]["w"] = "y^3*w/z^4"
    return corrupted


def _one_broken_map_doc():
    raw, _ = _fixture_doc_dict()
    corrupted = copy.deepcopy(raw)
    corrupted["maps"][2]["coords"]["w"] = "w*y^3/z^2"
    return corrupted


def _shift_map_doc():
    # w -> y + w has both an even and an odd part, so its invariance
    # witness carries the cross term 2ab of (a + b*w)^2
    raw, _ = _fixture_doc_dict()
    doc = copy.deepcopy(raw)
    doc["maps"].append({"name": "shift", "coords": {"w": "y + w", "y": "y", "z": "z"}})
    return doc


def _big_power_map_doc():
    # y -> y^40 pushes the pulled-back branch curve past poly.DEGREE_CAP, so
    # custom-invariance-big fails on a DegreeCapError witness
    raw, _ = _fixture_doc_dict()
    doc = copy.deepcopy(raw)
    doc["maps"].append({"name": "big", "coords": {"w": "w", "y": "y^40", "z": "z"}})
    return doc


def _monomial_denominator_map_doc():
    # y -> 1 / y^20 substitutes a value with a monomial denominator
    raw, _ = _fixture_doc_dict()
    doc = copy.deepcopy(raw)
    doc["maps"].append(
        {"name": "inverse_power", "coords": {"w": "w", "y": "1 / y^20", "z": "z^3"}}
    )
    return doc


def _polynomial_value_map_doc():
    # y -> y + z substitutes a polynomial value at powers up to 4
    raw, _ = _fixture_doc_dict()
    doc = copy.deepcopy(raw)
    doc["maps"].append({"name": "sum", "coords": {"w": "w", "y": "y + z", "z": "z"}})
    return doc


def _rational_value_map_doc():
    # y -> (y+1)/(y-1) has a non-monomial denominator, so it substitutes
    # term by term
    raw, _ = _fixture_doc_dict()
    doc = copy.deepcopy(raw)
    doc["maps"].append(
        {"name": "cayley", "coords": {"w": "w", "y": "(y+1)/(y-1)", "z": "z"}}
    )
    return doc


def _k3_cover_families_doc():
    # with the K3 covers of families 1 and 2 in the document, the fixture's
    # lifts and deck_flip get invariance, order and 2-form ratio records
    raw, _ = _fixture_doc_dict()
    doc = copy.deepcopy(raw)
    doc["families"] += [serialize_family(k3_cover(family(k))) for k in (1, 2)]
    return doc


def _nonconstant_ratio_map_doc():
    # y -> z/y preserves A*z^2 + B*z^3 but its bi-2-form ratio is not
    # constant; y -> y*z, z -> y*z does not preserve it
    return {
        "schema": "enricert-input/1",
        "families": [{
            "name": "zonly", "kind": "enriques_horikawa", "parameters": ["A", "B"],
            "monomials": [
                {"i": 0, "j": 2, "coeff": {"param": "A", "scalar": "1,0,0,0"}},
                {"i": 0, "j": 3, "coeff": {"param": "B", "scalar": "1,0,0,0"}},
            ],
        }],
        "maps": [
            {"name": "flip", "coords": {"w": "w", "y": "z/y", "z": "z"}},
            {"name": "singular", "coords": {"w": "w", "y": "y*z", "z": "y*z"}},
        ],
    }


def _square_sum_map_doc():
    # y -> (y + z + A + ... + F + 1)^2 is a 45-term value; the pulled-back
    # relation passes the product size cap, so its invariance record is a
    # SizeCapError
    raw, _ = _fixture_doc_dict()
    doc = copy.deepcopy(raw)
    doc["maps"].append({
        "name": "square_sum",
        "coords": {"w": "w", "y": "(y + z + A + B + C + D + E + F + 1)^2", "z": "z"},
    })
    return doc


def test_checks_never_short_circuit():
    cert = verify_all(document=load_document(_two_broken_maps_doc()))
    assert cert.overall == "fail"
    failing = [r.id for r in cert.records if r.failed]
    assert failing == [
        "custom-invariance-aut_4_2", "custom-invariance-aut_8_4",
    ]
    # evaluation continues past both failures
    last_fail = max(i for i, r in enumerate(cert.records) if r.failed)
    tail = cert.records[last_fail + 1:]
    assert tail and all(r.result in ("pass", "info") for r in tail)
    assert cert.first_failure.id == "custom-invariance-aut_4_2"
    assert "even part" in cert.first_failure.witness


def test_failing_invariance_drops_order_and_ratio_records():
    cert = verify_all(document=load_document(_one_broken_map_doc()))
    ids = {r.id for r in cert.records}
    assert "custom-invariance-aut_8_2" in ids
    assert "custom-order-aut_8_2" not in ids
    assert "custom-ratio-aut_8_2" not in ids


def test_escaping_exception_becomes_failure_record():
    fam3 = [f for f in ingest(str(FIXTURES / "families.json")).families][2]
    doc = serialize_document([fam3])
    doc["families"][0]["actions"] = [
        {
            "name": "skewed",
            "weights": {"A": 1, "B": 2, "C": 3, "D": 4},
            "geometric": {},
            "w_square_scale": 0,
        }
    ]
    cert = verify_all(document=load_document(doc))
    by_id = {r.id: r for r in cert.records}
    action = by_id["custom-action-family3-skewed"]
    assert action.failed and action.witness
    moduli = by_id["custom-moduli-family3"]
    assert moduli.failed
    assert moduli.witness.startswith("PreconditionError:")


def test_a_check_that_raises_runs_once(monkeypatch):
    # The cube's pulled-back relation exceeds the product size cap, and the
    # action's y^40 exceeds the degree cap.  The invariance failure is also
    # what drops the cube's order and ratio rows, and the action failure is
    # also the moduli row's; neither check is computed again for them.
    import enricert.certificate as certificate

    calls = []
    for name in ("check_equation_invariance", "check_parameter_action"):
        def counted(*args, real=getattr(certificate, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(certificate, name, counted)
    raw, _ = _fixture_doc_dict()
    fam = raw["families"][0]
    fam["actions"] = [{
        "name": "big", "weights": {p: 1 for p in fam["parameters"]},
        "geometric": {"y": "y^40"}, "w_square_scale": 0,
    }]
    cube = {"w": "w", "y": "(y+z+A+B+C+D+E+F)^3", "z": "z"}
    doc = load_document({"families": [fam], "maps": [{"name": "cube", "coords": cube}]})
    records = document_records(doc.families, doc.maps, doc.actions)
    assert [(r.id, r.witness) for r in records if r.failed] == [
        ("custom-invariance-cube",
         "SizeCapError: product of 1716 by 120 terms exceeds cap 65536 term pairs"),
        ("custom-action-family1-big",
         "DegreeCapError: product term of total degree 80 exceeds cap 64"),
        ("custom-moduli-family1",
         "DegreeCapError: product term of total degree 80 exceeds cap 64"),
    ]
    assert calls == ["check_equation_invariance", "check_parameter_action"]


_PINNED_DOCUMENTS = {
    "two-broken-maps": _two_broken_maps_doc,
    "one-broken-map": _one_broken_map_doc,
    "shift-map": _shift_map_doc,
    "big-power-map": _big_power_map_doc,
    "monomial-denominator-map": _monomial_denominator_map_doc,
    "polynomial-value-map": _polynomial_value_map_doc,
    "rational-value-map": _rational_value_map_doc,
    "k3-cover-families": _k3_cover_families_doc,
    "nonconstant-ratio-map": _nonconstant_ratio_map_doc,
    "square-sum-map": _square_sum_map_doc,
}


@pytest.mark.parametrize("name", sorted(_PINNED_DOCUMENTS))
def test_document_run_output_is_pinned(name, tmp_path, capsys):
    # The data file holds the full `enricert verify --input` output, witness
    # lines included, captured before the map layer dropped its cover-ring
    # reduction; it must never be regenerated from the code it checks.
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_PINNED_DOCUMENTS[name]()), encoding="utf-8")
    code = main(["verify", "--input", str(path)])
    captured = capsys.readouterr()
    want = json.loads(PINNED_RUNS.read_text(encoding="utf-8"))[name]
    assert code == want["exit_code"]
    assert captured.out == want["stdout"]
    assert captured.err == ""


def test_vanishing_corner_fails_custom_cover_record():
    raw, _ = _fixture_doc_dict()
    corrupted = copy.deepcopy(raw)
    entry = copy.deepcopy(corrupted["families"][2])
    entry["name"] = "pinched"
    entry["monomials"] = [
        m for m in entry["monomials"]
        if not (m["i"] == 0 and m["j"] == 2)
    ]
    doc = {"families": [entry]}
    cert = verify_all(document=load_document(doc))
    record = {r.id: r for r in cert.records}["custom-pinched-cover"]
    assert record.failed
    assert "corner" in record.witness


def test_map_with_no_matching_families_is_skipped():
    # K3 lifts have no K3 families to act on in this document
    raw, _ = _fixture_doc_dict()
    doc = {"families": raw["families"][:1], "maps": raw["maps"][3:]}
    cert = verify_all(document=load_document(doc))
    ids = {r.id for r in cert.records if r.id.startswith("custom-invariance")}
    assert ids == set()
    assert cert.overall == "pass"


@functools.lru_cache(maxsize=None)
def _selection_document(name):
    if name == "fixture":
        return ingest(str(FIXTURES / "families.json"))
    broken = {"two-broken-maps": _two_broken_maps_doc, "one-broken-map": _one_broken_map_doc}
    return load_document(broken[name]())


@functools.lru_cache(maxsize=None)
def _full_document_run(name):
    return tuple(verify_all(document=_selection_document(name)).records)


@pytest.mark.parametrize(
    "name,check",
    [("fixture", group) for group in FILTERABLE_GROUPS]
    + [(name, group) for name in ("two-broken-maps", "one-broken-map")
       for group in ("order", "index")],
)
def test_filtered_run_equals_filtering_with_a_document(name, check):
    # order and ratio records exist only where invariance held, even when
    # the invariance records themselves are not selected
    want = _filtered(_full_document_run(name), "all", check)
    assert _selected("all", check, _selection_document(name)) == want


def test_any_exception_a_check_raises_becomes_its_failure(monkeypatch):
    import enricert.certificate as certificate

    real_map_order = certificate.map_order

    def broken_map_order(phi):
        if phi.label == "aut_4_2":
            raise TypeError("injected")
        return real_map_order(phi)

    monkeypatch.setattr(certificate, "map_order", broken_map_order)
    cert = verify_all()
    assert [r.id for r in cert.records] == BUILTIN_IDS
    assert [r.id for r in cert.records if r.failed] == ["map-order-1"]
    record = cert.first_failure
    assert record.witness == "TypeError: injected"
    assert record.inputs == {} and record.value is None
