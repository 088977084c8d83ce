"""Round-tripping a document of families and maps through JSON.

A minimal single-parameter family together with the map that preserves it,
serialized to the versioned input format, read back, and run through the
check engine.  The same file works as ``enricert verify --input FILE``.
"""

import json
import os
import tempfile

from enricert import (
    family,
    family_automorphism,
    run_checks,
    serialize_document,
    specialization_one_param,
    specialize,
)
from enricert.ingest import ingest

narrow = specialize(family(1), specialization_one_param())
document = serialize_document([narrow], [family_automorphism(1)])
print("document schema:", document["schema"])
print("monomial entries:", len(document["families"][0]["monomials"]))

with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
    json.dump(document, fh, indent=2)
    path = fh.name

loaded = ingest(path)
os.remove(path)
print("read back:", loaded)
print("same family:", loaded.families[0] == narrow)

# Custom records run after the built-in ones; filter down to just them.
cert = run_checks(document=loaded)
custom = [r for r in cert.records if r.id.startswith("custom-")]
print("overall:", cert.overall)
for record in custom:
    print(f"  [{record.result}] {record.id}: {record.value}")
