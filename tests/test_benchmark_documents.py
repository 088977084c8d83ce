"""The benchmark's generated documents verify with their known verdicts.

``perfbench/docgen.py`` builds the custom-documents workload's inputs
through the package's public API, including ``MPoly.var(name, TABLE)``, and
returns the verdict and value it expects for every custom record.  The
generator is imported from its directory and only read.
"""

import sys
from pathlib import Path

import pytest

from enricert.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def docgen():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import docgen
    finally:
        sys.path.remove(str(PERFBENCH))
    return docgen


@pytest.mark.parametrize("seed", [1, 2])
def test_generated_document_prints_every_expected_record(docgen, tmp_path, capsys, seed):
    text, _, expected = docgen.generate(seed, 0)
    path = tmp_path / "document.json"
    path.write_text(text, encoding="utf-8")
    assert main(["verify", "--input", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    for rec_id, tag, value in expected:
        assert f"[{tag}] {rec_id}" + ("" if value is None else f": {value}") in lines
    assert lines[-1] == f"first failure: custom-invariance-{docgen.DECOY}"
