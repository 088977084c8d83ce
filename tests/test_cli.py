"""Command line behaviour: output shapes and the exit code contract."""

import argparse
import contextlib
import copy
import io
import json
import re
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import enricert
from enricert.certificate import FILTERABLE_GROUPS
import enricert.cli
from enricert.cli import main, parse_args
from enricert.errors import PreconditionError
from enricert.ingest import MAX_MAPS

from _helpers import WELL_FORMED_EXPRESSIONS, run_python

FIXTURES = Path(enricert.__file__).parent / "fixtures"
PINNED_OUTPUTS = Path(__file__).parent / "data" / "pinned_cli_outputs.json"


def fixture_doc():
    return json.loads((FIXTURES / "families.json").read_text(encoding="utf-8"))


def write_doc(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(*args, **kwargs):
    """Run ``python -m enricert.cli`` in a child process."""
    return run_python("-m", "enricert.cli", *args, **kwargs)


# -- verify -------------------------------------------------------------------


def test_verify_all_green(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] support-size" in out
    assert "[info] side-condition-square-root" in out
    assert "overall: pass (56 checks, 5 notes)" in out
    assert "first failure" not in out


def test_verify_family_and_check_filters(capsys):
    assert main(["verify", "--family", "2", "--check", "order"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert lines[0] == "[PASS] map-order-2: 8"
    assert all(l.startswith("[PASS]") for l in lines)
    assert "[PASS] square-relation" in out
    assert "overall: pass (2 checks)" in out


def test_verify_with_fixture_input(capsys):
    assert main(["verify", "--input", str(FIXTURES / "families.json")]) == 0
    out = capsys.readouterr().out
    assert "[PASS] custom-invariance-aut_8_2" in out
    assert "overall: pass (78 checks, 5 notes)" in out


def test_verify_failure_exit_and_witness(tmp_path, capsys):
    doc = fixture_doc()
    doc["maps"][0]["coords"]["w"] = "w/(y^2*z^3)"
    path = write_doc(tmp_path, doc)
    assert main(["verify", "--input", path]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] custom-invariance-aut_4_2" in out
    assert "witness:" in out
    assert "overall: fail" in out
    assert "first failure: custom-invariance-aut_4_2" in out
    # the run still reports records after the failing one
    assert out.index("custom-invariance-aut_4_2") < out.index("custom-moduli-family3")


def test_verify_order_past_the_cap_names_the_power(tmp_path, capsys):
    # y -> y^2 preserves w^2 = A*z^3, but its seventh power sends y to y^128
    doc = {
        "schema": "enricert-input/1",
        "families": [{
            "name": "c", "kind": "enriques_horikawa", "parameters": ["A"],
            "monomials": [{"i": 0, "j": 2, "coeff": {"param": "A", "scalar": "1,0,0,0"}}],
        }],
        "maps": [{"name": "grow", "coords": {"w": "w", "y": "y^2", "z": "z"}}],
    }
    assert main(["verify", "--input", write_doc(tmp_path, doc)]) == 1
    out = capsys.readouterr().out
    assert "[PASS] custom-invariance-grow: c" in out
    assert (
        "[FAIL] custom-order-grow\n       witness: DegreeCapError: power 7 of "
        "grow: coordinate of total degree 128 exceeds cap 64\n"
    ) in out


def test_verify_a_storable_pullback_near_the_cap(tmp_path, capsys):
    # y -> 1/y^10 pulls family 1's relation back to a polynomial over y^40,
    # which can be stored, so the invariance record fails with its even
    # part as witness; summed term by term, the pullback would pass the cap
    # (DegreeCapError at degree 74) on the way
    doc = fixture_doc()
    doc["maps"].append({"name": "near", "coords": {"w": "w", "y": "1/y^10", "z": "z"}})
    assert main(["verify", "--input", write_doc(tmp_path, doc)]) == 1
    out = capsys.readouterr().out
    assert (
        "[FAIL] custom-invariance-near\n       witness: "
        "family1: even part y^44*z^3*A + y^44*z^2*B + y^43*z^3*D"
        " - y^42*z^4*F + y^44*z*C + y^43*z^2*E - y^41*z^4*E + y^42*z^2*F"
        " - y^41*z^3*D + y^30*z^4*E + y^30*z^3*D + y^20*z^4*F - y^20*z^2*F"
        " - y^10*z^3*D - y^10*z^2*E - z^3*A - z^2*B - z*C; odd part 0"
        "\n"
    ) in out


def test_schema_errors_do_not_depend_on_the_hash_seed(tmp_path, monkeypatch):
    # the coordinate triples are printed in their order, not as sets
    doc = fixture_doc()
    doc["maps"][0]["coords"] = {"w": "w", "y": "y"}
    path = write_doc(tmp_path, doc)
    errors = []
    for seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        proc = run_cli("verify", "--input", path)
        assert proc.returncode == 2
        errors.append(proc.stderr)
    assert errors[0] == errors[1] == (
        "schema violation: maps[0]: coords keys must be exactly "
        "['w', 'y', 'z'] or ['W', 'Y', 'Z'], got ['w', 'y']\n"
    )


def test_verify_out_writes_certificate(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    assert main(["verify", "--family", "1", "--out", str(out_path)]) == 0
    capsys.readouterr()
    data = json.loads(out_path.read_text(encoding="utf-8"))
    assert data["schema"] == "enricert-certificate/1"
    assert data["overall"] == "pass"
    assert all(rec["family"] == 1 for rec in data["records"])


def test_verify_schema_violation_exits_2(tmp_path, capsys):
    doc = fixture_doc()
    doc["families"][0]["monomials"][0]["i"] = 0
    doc["families"][0]["monomials"][0]["j"] = 1
    path = write_doc(tmp_path, doc)
    assert main(["verify", "--input", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema violation:")
    assert "support outside 4 <= i+2j <= 8: (0, 1)" in err


def test_verify_another_schema_version_exits_2(tmp_path, capsys):
    path = write_doc(tmp_path, {"schema": "enricert-input/2", "families": [], "maps": []})
    assert main(["verify", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "schema violation: document: 'schema' must be 'enricert-input/1'\n"
    )


def test_verify_repeated_parameter_exits_2(tmp_path, capsys):
    # the repeated name used to pass with moduli count 6 over 7 parameters;
    # family1 has 5 moduli
    doc = fixture_doc()
    doc["families"][0]["parameters"] = list("ABCDEF") + ["A"]
    path = write_doc(tmp_path, doc)
    assert main(["verify", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "invariant violation: families[0] 'family1': parameter 'A' of family1 is repeated\n"
    )


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["maps"].append(dict(doc["maps"][0])),
     "maps[6]: duplicate map name 'aut_4_2'"),
    (lambda doc: doc["families"][2]["actions"].append(doc["families"][2]["actions"][0]),
     "families[2].actions[2]: duplicate action name 'homothety'"),
    (lambda doc: doc["families"][0]["actions"][0].update(geometric={"q": "y"}),
     "families[0].actions[0]: geometric key 'q' is not one of ('y', 'z')"),
], ids=["map-name", "action-name", "geometric-key"])
def test_verify_schema_breaking_names_exit_2(tmp_path, capsys, edit, message):
    doc = fixture_doc()
    edit(doc)
    path = write_doc(tmp_path, doc)
    assert main(["verify", "--input", path]) == 2
    assert capsys.readouterr().err == f"schema violation: {message}\n"


def test_verify_parse_error_exits_2(tmp_path, capsys):
    doc = fixture_doc()
    doc["maps"][0]["coords"]["w"] = "i*w*"
    path = write_doc(tmp_path, doc)
    assert main(["verify", "--input", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: maps[0].coords.w:")
    assert "(at position 4)" in err


def test_verify_huge_exponent_exits_2(tmp_path, capsys):
    doc = fixture_doc()
    doc["maps"][0]["coords"]["w"] = "zeta8^100000000"
    path = write_doc(tmp_path, doc)
    assert main(["verify", "--input", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: maps[0].coords.w:")
    assert "exceeds the degree cap 64" in err


def test_verify_huge_integer_literal_exits_2(tmp_path, capsys):
    # 5,000 digits exceed the interpreter's int string-conversion limit
    doc = fixture_doc()
    doc["maps"][0]["coords"]["w"] = "1" * 5000 + "*w"
    path = write_doc(tmp_path, doc)
    assert main(["verify", "--input", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: maps[0].coords.w:")
    assert "(at position 0)" in err


_OCTIC = "(y+z+A+B+C+D+E+F)^4"


@pytest.mark.parametrize("text, message", [
    ("y^40*y^40", "product term of total degree 80 exceeds cap 64 (at position 4)"),
    (f"{_OCTIC}*{_OCTIC}",
     "product of 330 by 330 terms exceeds cap 65536 term pairs (at position 19)"),
    # 2^262144 would be built one ^ later; one more level would build a
    # 6.9e10-bit integer
    ("y*(((((2)^64)^64)^64)^64)^64",
     "power would have a coefficient of more than 4300 digits (at position 17)"),
    # y times 800 factors of 1,039 digits; the fifth takes the product past
    # 4,300 digits, where it once took time quadratic in the chain
    ("y*" + "*".join(["((9^64)^17)"] * 800),
     "product would have a coefficient of more than 4300 digits (at position 49)"),
], ids=["degree-cap", "size-cap", "constant-power-tower", "product-chain"])
def test_verify_a_cap_while_parsing_is_a_located_parse_error(tmp_path, capsys, text, message):
    path = write_doc(tmp_path, _with_coord("y", text))
    assert main(["verify", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: maps[0].coords.y: {message}\n"


def test_a_coefficient_past_the_digit_limit_keeps_its_witness(capsys):
    # y -> c*y with c = 2^8192 (2,467 digits): the even part's coefficients
    # are +-(c^k - 1), and c^4, c^3, c^2 have 9,865, 7,399 and 4,933 digits,
    # past the interpreter's int string-conversion limit, so they print as
    # their digit counts; the witness was a ValueError.
    path = Path(__file__).parent / "data" / "big_constant_document.json"
    assert main(["verify", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "ValueError" not in captured.out
    c = 2 ** 8192
    assert (
        "[FAIL] custom-invariance-big-constant\n"
        "       witness: family1: even part (-<9865-digit integer>)*y^4*z^3*A"
        " + (-<9865-digit integer>)*y^4*z^2*B + (-<7399-digit integer>)*y^3*z^3*D"
        " + (<4933-digit integer>)*y^2*z^4*F + (-<9865-digit integer>)*y^4*z*C"
        " + (-<7399-digit integer>)*y^3*z^2*E + " + f"{c - 1}*y*z^4*E"
        " + (-<4933-digit integer>)*y^2*z^2*F + " + f"{c - 1}*y*z^3*D; odd part 0\n"
    ) in captured.out


@pytest.mark.parametrize(
    "text",
    ["(" * 3000 + "y" + ")" * 3000, "-" * 5000 + "y"],
    ids=["parentheses", "unary-signs"],
)
def test_verify_deep_nesting_exits_2(tmp_path, capsys, text):
    # deep enough to exhaust the interpreter's recursion limit unbounded
    doc = fixture_doc()
    doc["maps"][0]["coords"]["y"] = text
    path = write_doc(tmp_path, doc)
    assert main(["verify", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "parse error: maps[0].coords.y: nesting deeper than 100 levels (at position 100)\n"
    )


@pytest.mark.parametrize(
    "scalar, message",
    [
        ("1e5000,0,0,0", "bad rational '1e5000'"),
        ("1.5,0,0,0", "bad rational '1.5'"),
        ("1_000,0,0,0", "bad rational '1_000'"),
        ("1" * 5001 + ",0,0,0", "integer literal of 5001 digits is too long"),
    ],
    ids=["exponent", "decimal", "underscore", "too-long"],
)
def test_verify_undocumented_scalar_exits_2(tmp_path, capsys, scalar, message):
    # Only n and n/d are scalar coordinates; 1e5000 used to build a
    # 5,001-digit integer and fail every record that touched it (exit 1).
    doc = fixture_doc()
    doc["families"][0]["monomials"][0]["coeff"]["scalar"] = scalar
    path = write_doc(tmp_path, doc)
    assert main(["verify", "--input", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: families[0].monomials[0].scalar:")
    assert message in err
    assert "(at position 0)" in err


def test_verify_invariant_violation_exits_2(tmp_path, capsys):
    doc = {
        "families": [
            {
                "name": "c",
                "kind": "k3_cover",
                "monomials": [{"i": 1, "j": 2, "coeff": {"scalar": "1,0,0,0"}}],
            }
        ]
    }
    path = write_doc(tmp_path, doc)
    assert main(["verify", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "invariant violation: families[0] 'c': "
        "cover branch is not invariant under (Y,Z) -> (-Y,-Z)\n"
    )


def test_verify_map_invariant_violation_names_the_map(tmp_path, capsys):
    doc = fixture_doc()
    doc["maps"][0]["coords"]["y"] = "w"
    path = write_doc(tmp_path, doc)
    assert main(["verify", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "invariant violation: maps[0] 'aut_4_2': base coordinate y involves w\n"
    )


def test_verify_unwritable_out_is_an_output_error(tmp_path, capsys):
    out_path = tmp_path / "missing-dir" / "cert.json"
    assert main(["verify", "--family", "1", "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    # every record is still printed before the write fails
    assert "overall: pass" in captured.out
    assert captured.err == (
        f"output error: cannot write {out_path}: No such file or directory\n"
    )
    assert not out_path.parent.exists()


def test_verify_missing_file_exits_2(capsys):
    assert main(["verify", "--input", "/nonexistent/input.json"]) == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_verify_any_other_engine_error_exits_2(monkeypatch, capsys):
    def boom(**kwargs):
        raise PreconditionError("boom")

    monkeypatch.setattr(enricert.cli, "run_checks", boom)
    assert main(["verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: boom\n"


def test_verify_unreadable_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["verify", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("schema violation:")


# Both are ValueErrors raised inside json.load, as JSONDecodeError is.
NON_UTF8_BYTES = b'{"families": [], "maps": [\xff]}'
HUGE_NUMBER_BYTES = b'{"families": [], "maps": [' + b"1" * 5000 + b"]}"


@pytest.mark.parametrize(
    "content, message",
    [
        (NON_UTF8_BYTES, "'utf-8' codec can't decode byte 0xff"),
        (HUGE_NUMBER_BYTES, "Exceeds the limit (4300 digits)"),
    ],
    ids=["non-utf8-byte", "huge-number"],
)
def test_verify_unreadable_bytes_exit_2(tmp_path, capsys, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["verify", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"schema violation: {path}: not valid JSON: ")
    assert message in captured.err


def test_verify_document_over_a_cap_exits_2(tmp_path, capsys):
    doc = fixture_doc()
    doc["maps"] = [dict(doc["maps"][0], name=f"m{k}") for k in range(MAX_MAPS + 1)]
    assert main(["verify", "--input", write_doc(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"schema violation: document: {MAX_MAPS + 1} maps exceed the cap "
        f"MAX_MAPS = {MAX_MAPS}\n"
    )


def test_verify_deeply_nested_json_exits_2(tmp_path, capsys):
    # deeper than json.load can follow: it raises RecursionError
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000, encoding="utf-8")
    assert main(["verify", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"schema violation: {path}: not valid JSON: nested too deeply\n"


def _with_coord(var, text):
    doc = fixture_doc()
    doc["maps"][0]["coords"][var] = text
    return doc


def _with_map(coords):
    doc = fixture_doc()
    doc["maps"].append({"name": "big", "coords": coords})
    return doc


# 6,435 terms of degree 8; substituted into a branch of y-degree 4 it stays
# under the degree cap, but squaring it alone visits 6,435^2 term pairs.
TERM_COUNT_BOMB = _with_coord("y", "(y+z+A+B+C+D+E+F)^8")


def test_verify_term_count_bomb_hits_the_size_cap(tmp_path):
    path = write_doc(tmp_path, TERM_COUNT_BOMB)
    proc = run_cli("verify", "--input", path, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert (
        "[FAIL] custom-invariance-aut_4_2\n"
        "       witness: SizeCapError: product of 6435 by 6435 terms exceeds "
        "cap 65536 term pairs\n"
    ) in proc.stdout


# -- fuzzing ingest through the command line ----------------------------------

# "²" and "٣" are digits to str.isdigit, but not ASCII digits
_EXPRESSION_TOKENS = (
    "w", "y", "z", "A", "B", "i", "zeta8", "0", "1", "2", "8", "²", "٣",
    "+", "-", "*", "/", "^", "(", ")", " ",
)
_expressions = WELL_FORMED_EXPRESSIONS | st.lists(
    st.sampled_from(_EXPRESSION_TOKENS), max_size=14
).map("".join)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _edited_family(index, key, value):
    doc = fixture_doc()
    monomial = doc["families"][0]["monomials"][index]
    if key == "scalar":
        monomial["coeff"]["scalar"] = value
    else:
        monomial[key] = value
    return doc


_documents = st.one_of(
    st.binary(max_size=40),
    _json_values.map(lambda v: json.dumps(v).encode()),
    st.builds(_with_coord, st.sampled_from("wyz"), _expressions).map(
        lambda d: json.dumps(d).encode()
    ),
    st.builds(
        _edited_family,
        st.integers(min_value=0, max_value=5),
        st.sampled_from(["i", "j", "scalar"]),
        _json_values,
    ).map(lambda d: json.dumps(d).encode()),
)


@settings(max_examples=60, derandomize=True, deadline=timedelta(seconds=10))
@given(_documents)
@example(json.dumps(_with_map({"w": "w", "y": "y^40", "z": "z"})).encode())
@example(json.dumps(_with_map({"w": "w", "y": "1 / y^20", "z": "z^3"})).encode())
@example(json.dumps(_with_map({"w": "w", "y": "y^²", "z": "z"})).encode())
@example(json.dumps(TERM_COUNT_BOMB).encode())
@example(NON_UTF8_BYTES)
@example(HUGE_NUMBER_BYTES)
def test_verify_any_document_ends_with_an_exit_code(tmp_path_factory, content):
    # Whatever the file holds, verify returns 0, 1 or 2 and no exception
    # escapes.
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_bytes(content)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", "--input", str(path)])
    assert code in (0, 1, 2)


# -- classify -----------------------------------------------------------------


def test_classify_output(capsys):
    assert main(["classify"]) == 0
    out = capsys.readouterr().out
    assert "admissible (order, index) pairs:" in out
    for pair in ("(4, 2)", "(8, 2)", "(8, 4)"):
        assert f"  {pair}" in out
    assert "allowed orders: 1, 2, 3, 4, 5, 6, 8" in out
    assert "(6, 2) excluded by half_odd" in out
    assert "(16, 8) excluded by no_index8" in out
    # rule statements are printed in full
    assert "acts trivially on the" in out


# -- report -------------------------------------------------------------------


def test_report_writes_golden_bytes(tmp_path, capsys):
    out_path = tmp_path / "full.json"
    assert main(["report", "--out", str(out_path)]) == 0
    stdout = capsys.readouterr().out
    assert f"wrote {out_path}: overall pass (56 checks)" in stdout
    golden = (FIXTURES / "golden_certificate.json").read_text(encoding="utf-8")
    assert out_path.read_text(encoding="utf-8") == golden


def test_report_unwritable_out_is_an_output_error(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"output error: cannot write {tmp_path}: Is a directory\n"


def test_report_requires_out(capsys):
    with pytest.raises(SystemExit) as info:
        main(["report"])
    assert info.value.code == 2


# -- parser-level behaviour ---------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == f"enricert {enricert.__version__}"


def test_unknown_check_choice_rejected(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--check", "classification"])
    assert info.value.code == 2


def test_installed_entry_point():
    proc = run_cli("classify")
    assert proc.returncode == 0
    assert "admissible (order, index) pairs:" in proc.stdout


def test_parse_args_reads_values_prefixes_and_the_last_repeat():
    assert parse_args(["verify"]) == ("verify", "all", "all", None, None)
    assert parse_args(
        ["verify", "--fam=3", "--check", "order", "--family", "2", "--in", "-", "--o=-x"]
    ) == ("verify", "2", "order", "-", "-x")
    assert parse_args(("report", "--out", "-1")) == ("report", None, None, None, "-1")
    assert parse_args(["classify"]).command == "classify"


# Each case was captured from the argparse parser the command line used to be
# read with, under COLUMNS=80; the bytes are the same on Python 3.10 to 3.13.
_PINNED = json.loads(PINNED_OUTPUTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case", _PINNED, ids=[" ".join(case["argv"]) or "no-arguments" for case in _PINNED]
)
def test_parser_output_is_pinned(capsys, case):
    with pytest.raises(SystemExit) as info:
        main(case["argv"])
    captured = capsys.readouterr()
    assert (info.value.code, captured.out, captured.err) == (
        case["exit_code"], case["stdout"], case["stderr"]
    )


def test_verify_usage_and_help_list_every_choice():
    # the texts are argparse's fixed 80-column layout, so they stay
    # constants; each must still spell the choices the parser accepts
    from enricert import cli

    for name, choices in cli._OPTIONS["verify"].items():
        if choices is not None:
            listed = "{" + ",".join(choices) + "}"
            assert f"[{name} {listed}]" in cli._USAGE["verify"]
            assert f"  {name} {listed}" in cli._HELP["verify"]


def test_every_brace_group_of_the_help_texts_is_a_choice_list_of_the_grammar():
    # _OPTIONS builds the choices from BUILTIN_FAMILIES and FILTERABLE_GROUPS,
    # and the top-level group lists the subcommands, so a new family tag,
    # group or subcommand cannot leave a usage line or --help stale
    from enricert import cli

    seen = set()
    for command in cli._USAGE:
        text = cli._USAGE[command] + cli._HELP[command]
        for option, group in re.findall(r"(--[\w-]+ )?\{([^}]*)\}", text):
            option = option.strip()
            choices = cli._OPTIONS[command][option] if option else tuple(cli._OPTIONS)
            assert tuple(group.split(",")) == choices, (command, option)
            seen.add((command, option))
    assert seen == {("", ""), ("verify", "--family"), ("verify", "--check")}


def test_a_request_loads_no_argument_parsing_modules():
    # argparse pulls in gettext, whose first message lookup imports locale
    code = (
        "import contextlib, io, sys\n"
        "from enricert.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['verify', '--family', '3', '--check', 'order']) == 0\n"
        f"    assert main(['verify', '--input', {str(FIXTURES / 'families.json')!r}]) == 0\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    proc = run_python("-c", code)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


# -- the parser against its argparse reference --------------------------------


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the command line was read with before
    ``parse_args`` replaced it (its subcommand dispatch left out)."""
    parser = argparse.ArgumentParser(
        prog="enricert",
        description="exact certification of the double-plane automorphism "
        "families and their classification",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {enricert.__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify", help="run checks and print one line per record"
    )
    verify.add_argument(
        "--family", choices=("1", "2", "3", "all"), default="all",
        help="restrict to the checks tagged with one built-in family",
    )
    verify.add_argument(
        "--check", choices=FILTERABLE_GROUPS + ("all",), default="all",
        help="restrict to one check group",
    )
    verify.add_argument(
        "--input", metavar="FILE", default=None,
        help="JSON document of extra families and maps to check",
    )
    verify.add_argument(
        "--out", metavar="FILE", default=None,
        help="also write the certificate JSON here",
    )

    sub.add_parser(
        "classify", help="print admissible pairs, allowed orders, pruning trace"
    )

    report = sub.add_parser("report", help="write the full certificate JSON")
    report.add_argument("--out", metavar="FILE", required=True)

    return parser


COMMANDS = ("verify", "classify", "report")
_ARGV_TOKENS = (
    *COMMANDS,
    "--family", "--check", "--input", "--out", "--help", "--version",
    "--fam", "--ch", "--in", "--o", "--he", "--ver",
    "--family=3", "--check=order", "--input=doc.json", "--out=cert.json", "--fam=all",
    "-h", "--", "-", "-1", "-x", "-x y",
    "1", "2", "3", "all", "invariance", "moduli", "9", "bogus", "classification",
    "extra",
)


def _command_follows_double_dash(argv):
    # "-- verify": Python 3.13 drops the "--" and reads verify, 3.10 and 3.11
    # read "--" as the command and reject it
    for token in argv:
        if token in COMMANDS:
            return False
        if token == "--":
            return True
    return False


def _outcome(parse, argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            args = parse(argv)
        except SystemExit as exc:
            return "exit", exc.code
    return tuple(
        getattr(args, name, None) for name in ("command", "family", "check", "input", "out")
    )


@settings(max_examples=400, derandomize=True)
@given(
    st.lists(st.sampled_from(_ARGV_TOKENS), max_size=6).filter(
        lambda argv: not _command_follows_double_dash(argv)
    )
)
@example(["verify", "-h", "--check", "bogus"])
@example(["verify", "--check", "bogus", "-h"])
@example(["verify", "--", "-h"])
@example(["-x", "verify", "--in", "-1", "--o", "-"])
@example(["report", "--o=cert.json", "--out", "extra"])
def test_parser_matches_its_argparse_reference(argv):
    assert _outcome(parse_args, argv) == _outcome(reference_parser().parse_args, argv)
