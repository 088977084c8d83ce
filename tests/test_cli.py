"""Command line behaviour: output shapes and the exit code contract."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import enricert
from enricert.cli import main

FIXTURES = Path(enricert.__file__).parent / "fixtures"


def fixture_doc():
    return json.loads((FIXTURES / "families.json").read_text(encoding="utf-8"))


def write_doc(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


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
        "invariant violation: maps[0] 'aut_4_2': aut_4_2: base coordinate y involves w\n"
    )


def test_verify_missing_file_exits_2(capsys):
    assert main(["verify", "--input", "/nonexistent/input.json"]) == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_verify_unreadable_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["verify", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("schema violation:")


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
    # The child imports the same package as this process, also when pytest
    # put it on sys.path through its pythonpath setting rather than the
    # environment.
    root = str(Path(enricert.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (root, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "enricert.cli", "classify"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "admissible (order, index) pairs:" in proc.stdout
