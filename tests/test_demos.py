"""Smoke tests: every script in demos/ runs to completion, and every
package name the documentation gives resolves."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]


def test_all_demos_are_collected():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_every_dotted_name_the_docs_give_resolves():
    # a backticked `enricert.a.b` is reached from `import enricert` by
    # attribute access, as a reader would type it
    import enricert

    names = sorted({
        name
        for doc in DOCS
        for name in re.findall(r"`(enricert(?:\.\w+)+)`", doc.read_text(encoding="utf-8"))
    })
    assert "enricert.ingest.serialize_document" in names
    unresolved = []
    for name in names:
        obj = enricert
        try:
            for part in name.split(".")[1:]:
                obj = getattr(obj, part)
        except AttributeError as exc:
            unresolved.append(f"{name}: {exc}")
    assert unresolved == []
