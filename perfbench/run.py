"""enricert benchmark: end-to-end and per-layer numbers for three workloads.

    python3 perfbench/run.py --workload builtin-full --seed 1 --seconds 40 --trace 0

Run from anywhere; the repository root is the parent of this directory.
Every request runs in a fresh worker process (``worker.py``), one at a time,
because a user of the ``enricert`` command pays interpreter start-up, import
and every cache fill on each call.  Requests are drawn from the seed in
rounds (see ``rounds``) and issued in a closed loop; the loop stops at the
round boundary nearest to ``--seconds``.  Every output is checked: a
mismatch, a wrong exit code or an exception counts as a failed request.

``--trace 0`` prints the end-to-end metrics.  Their times are scaled to
the reference speed: a fixed kernel (``reference.py``) runs in a fresh
process before and after every request, and each time of the request is
multiplied by ``REF_S`` over the mean of those two kernel times.  The host
this benchmark was defined on drifts in speed by up to 1.5x over minutes;
unscaled, the spread of ``run_s`` over ten seeds reached 0.28 of its median,
and scaled, blocks of the same requests spread 0.07 to 0.10.  The unscaled
medians are printed and kept in the details.  ``--trace 1`` runs the first
``TRACE_ROUNDS`` rounds of the seed, each request once untraced and once
traced (``tracer.py``), and prints the per-layer metrics; every count is a
mean per request over that fixed set, so it repeats exactly for a seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (the
environment, every sample, coefficient heights, all trace aggregates and the
spans) go to ``.perfbench_out/`` under the repository root.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "enricert"
GOLDEN = PACKAGE / "fixtures" / "golden_certificate.json"
# The golden certificate is the oracle for two workloads; pin its bytes so a
# change to the file cannot pass for a correct run.
GOLDEN_SHA256 = "01096c3803084fe7c76dbee69cb8cbdda818e9b7e632d5a02a4f40d6f94f649a"
OUT = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.py"
# About the reference kernel's median run time on the host this benchmark
# was defined on (2 vCPU Intel Xeon, Python 3.11.7).  It only sets the scale.
REF_S = 0.25

WORKLOADS = ("builtin-full", "filtered-cli", "custom-documents")
TRACE_ROUNDS = {"builtin-full": 2, "filtered-cli": 1, "custom-documents": 2}
REQUEST_TIMEOUT_S = 150
# Workers hash strings the same way in every run, so trace counts repeat.
WORKER_HASH_SEED = "0"

# The CLI's --family and --check choices.
FAMILY_CHOICES = ("1", "2", "3", "all")
CHECK_CHOICES = ("invariance", "order", "index", "cover", "moduli", "all")
# A filtered-cli round is three distinct (family, check) pairs that print
# FILTER_ROUND_RECORDS records between them.  Single pairs print 1 to 16
# records, so free draws would make records_per_s depend on the seed more
# than on the program; 112 such triples cover all 23 pairs.
FILTER_ROUND = 3
FILTER_ROUND_RECORDS = 18

END_TO_END_UNITS = {
    "run_s": "s",
    "run_s_p90": "s",
    "cpu_s": "s",
    "records_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

CALLS = (
    "field.cyclo_mul", "field.cyclo_inverse", "poly.mpoly_mul",
    "poly.substitute", "poly.ratfunc_new", "poly.exact_divide",
    "parsing.parse_expression", "cover.cover_reduce", "cover.k3_cover",
    "maps.compose", "maps.check_equation_invariance",
    "forms.bitwoform_pullback_ratio", "forms.k3_twoform_ratio",
)
SELF_TIMES = (
    "field.cyclo_mul", "field.cyclo_inverse", "poly.mpoly_mul",
    "poly.substitute", "poly.ratfunc_new", "parsing.parse_expression",
    "cover.cover_reduce", "cover.k3_cover", "maps.compose", "maps.map_order",
    "maps.check_equation_invariance", "maps.k4_normal_form_check",
    "forms.bitwoform_pullback_ratio", "forms.k3_twoform_ratio",
    "moduli.check_parameter_action", "moduli.moduli_number",
    "ingest.load_document", "cli.main",
)
DISTINCT = (
    "parsing.parse_expression", "cover.k3_cover",
    "maps.check_equation_invariance", "forms.bitwoform_pullback_ratio",
)
CHECK_GROUPS = (
    "construction", "invariance", "order", "index", "cover", "moduli",
    "lefschetz", "lattice", "classification",
)


class BenchError(Exception):
    """The checkout cannot be benchmarked."""


# -- expected outputs ---------------------------------------------------------

_TAGS = {"pass": "PASS", "fail": "FAIL", "info": "info"}


def _line(tag, rec_id, value):
    return f"[{tag}] {rec_id}" + ("" if value is None else f": {value}")


def _summary(lines, tags):
    checked = sum(1 for t in tags if t != "info")
    noted = len(tags) - checked
    overall = "fail" if "FAIL" in tags else "pass"
    text = f"overall: {overall} ({checked} checks"
    lines.append(text + (f", {noted} notes)" if noted else ")"))


class Golden:
    def __init__(self):
        data = GOLDEN.read_bytes()
        if hashlib.sha256(data).hexdigest() != GOLDEN_SHA256:
            raise BenchError(f"{GOLDEN} differs from the pinned golden certificate")
        self.text = data.decode("utf-8")
        self.records = json.loads(self.text)["records"]
        if any(r["result"] == "fail" for r in self.records):
            raise BenchError("the golden certificate holds a failing record")

    def filtered_stdout(self, fam, check):
        """What ``enricert verify --family fam --check check`` prints."""
        chosen = [
            r for r in self.records
            if (fam == "all" or r["family"] == int(fam))
            and (check == "all" or r["group"] == check)
        ]
        lines = [_line(_TAGS[r["result"]], r["id"], r["value"]) for r in chosen]
        _summary(lines, [_TAGS[r["result"]] for r in chosen])
        return "\n".join(lines) + "\n", len(chosen)


# -- requests ---------------------------------------------------------------

class Request:
    """One worker call, its output check, and how many records it emits."""

    def __init__(self, payload, check, records, info=None):
        self.payload = payload
        self.check = check  # (exit_code, output) -> None or a failure reason
        self.records = records
        self.info = info or {}


def _builtin_request(golden):
    def check(code, output):
        return None if output == golden.text else "certificate differs from golden"

    return Request({"op": "builtin"}, check, len(golden.records))


def _filtered_request(golden, fam, check_group):
    expected, count = golden.filtered_stdout(fam, check_group)

    def check(code, output):
        if code != 0:
            return f"exit code {code}, expected 0"
        return None if output == expected else "filtered output differs from golden"

    argv = ["verify", "--family", fam, "--check", check_group]
    return Request({"op": "cli", "argv": argv}, check, count,
                   {"family": fam, "check": check_group})


def _document_request(golden, seed, index):
    # docgen imports the package, which is on sys.path only after check_layout.
    import docgen

    text, heights, custom = docgen.generate(seed, index)
    path = OUT / "docs" / f"seed{seed}-{index}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    lines = [_line(_TAGS[r["result"]], r["id"], r["value"]) for r in golden.records]
    tags = [_TAGS[r["result"]] for r in golden.records]
    witness_at = None
    for rec_id, tag, value in custom:
        lines.append(_line(tag, rec_id, value))
        tags.append(tag)
        if tag == "FAIL":
            # The witness is the decoy's nonzero remainder on the first family.
            witness_at = len(lines)
            lines.append("       witness: respec1: even part ")
    _summary(lines, tags)
    lines.append(f"first failure: custom-invariance-{docgen.DECOY}")

    def check(code, output):
        if code != 1:
            return f"exit code {code}, expected 1"
        got = output.split("\n")
        if len(got) != len(lines) + 1 or got[-1] != "":
            return f"{len(got) - 1} output lines, expected {len(lines)}"
        for i, (want, have) in enumerate(zip(lines, got)):
            ok = have.startswith(want) if i == witness_at else have == want
            if not ok:
                return f"line {i + 1}: {have[:120]!r}, expected {want[:120]!r}"
        return None

    info = {
        "document": str(path.relative_to(ROOT)),
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "heights": heights,
    }
    return Request({"op": "cli", "argv": ["verify", "--input", str(path)]},
                   check, len(golden.records) + len(custom), info)


def _filter_round(rng, golden):
    pairs = [(f, c) for f in FAMILY_CHOICES for c in CHECK_CHOICES
             if (f, c) != ("all", "all")]
    counts = {p: golden.filtered_stdout(*p)[1] for p in pairs}
    while True:
        chosen = rng.sample(pairs, FILTER_ROUND)
        if sum(counts[p] for p in chosen) == FILTER_ROUND_RECORDS:
            return chosen


def rounds(workload, seed, golden):
    """The seed's endless sequence of request rounds for a workload."""
    index = 0
    while True:
        if workload == "builtin-full":
            yield [_builtin_request(golden)]
        elif workload == "filtered-cli":
            rng = random.Random(f"filtered-cli:{seed}:{index}")
            yield [_filtered_request(golden, f, c) for f, c in _filter_round(rng, golden)]
        else:
            yield [_document_request(golden, seed, index)]
        index += 1


# -- workers ------------------------------------------------------------------

def _worker_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = WORKER_HASH_SEED
    env.pop("PYTHONPATH", None)
    return env


def spawn(payload):
    """Run one worker; returns its result dict and the set-up seconds."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), json.dumps(payload)],
        cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
        timeout=REQUEST_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["imported_at"] - started


def run_request(req, trace):
    """Spawn, time and check one request; never raises for a failed request."""
    sample = {"request": req.payload, "trace": trace, **req.info}
    try:
        result, setup = spawn(dict(req.payload, trace=trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        sample.update(ok=False, reason=f"{type(exc).__name__}: {exc}")
        return sample, None
    sample.update(
        setup_s=setup,
        wall_s=result["wall_s"],
        cpu_s=result["cpu_s"],
        peak_rss_mb=result["peak_rss_kb"] / 1024,
        exit_code=result["exit_code"],
    )
    if "error" in result:
        reason = "raised: " + result["error"].strip().splitlines()[-1]
    else:
        reason = req.check(result["exit_code"], result["output"])
    # A request that fails emits no correct records.
    sample.update(ok=reason is None, reason=reason,
                  records_emitted=req.records if reason is None else 0)
    return sample, result.get("trace")


# -- metrics ----------------------------------------------------------------

def _p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(samples):
    """The end-to-end metrics, times scaled to the reference speed, and the
    unscaled medians."""
    timed = [s for s in samples if "wall_s" in s]
    if not timed:
        raise BenchError("no request completed")
    failed = sum(1 for s in samples if not s["ok"])

    def scaled(key):
        return [s[key] * REF_S / s["ref_s"] for s in timed]

    walls = scaled("wall_s")
    run_s = statistics.median(walls)
    values = {
        "run_s": run_s,
        "run_s_p90": _p90(walls),
        "cpu_s": statistics.median(scaled("cpu_s")),
        "records_per_s": statistics.mean(s["records_emitted"] for s in timed) / run_s,
        "setup_s": statistics.median(scaled("setup_s")),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in timed),
        "ok_frac": (len(samples) - failed) / len(samples),
    }
    unscaled = {key: statistics.median(s[key] for s in timed)
                for key in ("wall_s", "cpu_s", "setup_s", "ref_s")}
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, unscaled


def per_layer(traced, plain):
    """Per-request means over the traced requests, plus ratios of totals."""
    n = len(traced)
    empty = {"calls": 0, "failed": 0, "self_s": 0.0, "total_s": 0.0, "distinct": 0}
    totals = {}
    for _, trace in traced:
        for name, st in trace["stats"].items():
            acc = totals.setdefault(name, dict(empty))
            for key in acc:
                acc[key] += st[key] or 0

    def stat(name):
        return totals.get(name, empty)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in CALLS:
        m[f"{name}.calls"] = (stat(name)["calls"] / n, "count")
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = (stat(name)["self_s"] / n, "s")
    for name in DISTINCT:
        m[f"{name}.distinct_ratio"] = (ratio(stat(name)["distinct"], stat(name)["calls"]), "ratio")
    div = stat("poly.exact_divide")
    m["poly.exact_divide.failed"] = (div["failed"] / n, "count")
    m["poly.exact_divide.useful_ratio"] = (ratio(div["calls"] - div["failed"], div["calls"]), "ratio")
    computed = sum(trace["records_computed"] for _, trace in traced)
    emitted = sum(sample.get("records_emitted", 0) for sample, _ in traced)
    m["certificate.records_computed"] = (computed / n, "count")
    m["certificate.records_emitted"] = (emitted / n, "count")
    m["certificate.selected_ratio"] = (ratio(emitted, computed), "ratio")
    for group in CHECK_GROUPS:
        spent = sum(trace["group_s"].get(group, 0.0) for _, trace in traced)
        m[f"certificate.group_s.{group}"] = (spent / n, "s")
    m["certificate.to_json_s"] = (stat("certificate.to_json")["total_s"] / n, "s")
    traced_walls = [s["wall_s"] for s, _ in traced]
    plain_walls = [s["wall_s"] for s in plain if "wall_s" in s]
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    m["trace.overhead_s"] = (overhead, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, totals


# -- environment ----------------------------------------------------------------

def environment(seed):
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "worker_PYTHONHASHSEED": WORKER_HASH_SEED,
    }


def _heights(samples):
    per_doc = [s["heights"] for s in samples if "heights" in s]
    if not per_doc:
        return None
    flat = [h for doc in per_doc for h in doc]
    return {"per_document": per_doc, "min": min(flat), "max": max(flat),
            "median": statistics.median(flat)}


# -- main -------------------------------------------------------------------

def check_layout():
    for path in (PACKAGE / "__init__.py", PACKAGE / "cli.py", GOLDEN):
        if not path.is_file():
            raise BenchError(f"missing {path.relative_to(ROOT)}: run from a checkout of the repository")


def reference():
    """Run the reference kernel in a fresh process; its seconds."""
    proc = subprocess.run(
        [sys.executable, str(REFERENCE)], cwd=ROOT, env=_worker_env(),
        capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S, check=True,
    )
    return float(proc.stdout)


def measure(workload, seed, seconds, golden):
    samples = []
    started = time.monotonic()
    before = reference()
    for done, batch in enumerate(rounds(workload, seed, golden), start=1):
        for req in batch:
            sample = run_request(req, trace=False)[0]
            after = reference()
            sample["ref_s"] = (before + after) / 2
            samples.append(sample)
            before = after
        elapsed = time.monotonic() - started
        # Stop at the round boundary nearest to the deadline.
        if elapsed + elapsed / done / 2 >= seconds:
            break
    return samples


def measure_traced(workload, seed, golden):
    plain, traced = [], []
    gen = rounds(workload, seed, golden)
    for _ in range(TRACE_ROUNDS[workload]):
        for req in next(gen):
            plain.append(run_request(req, trace=False)[0])
            traced.append(run_request(req, trace=True))
    return plain, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        check_layout()
        golden = Golden()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {"workload": args.workload, "environment": environment(args.seed),
               "seconds": args.seconds}

    if args.trace:
        plain, traced = measure_traced(args.workload, args.seed, golden)
        samples = plain + [s for s, _ in traced]
        good = [(s, t) for s, t in traced if s["ok"] and t is not None]
        if len(good) != len(traced):
            metrics, totals = {}, {}
        else:
            metrics, totals = per_layer(good, plain)
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for number, (_, trace) in enumerate(traced):
                for span in (trace or {}).get("spans", ()):
                    fh.write(json.dumps({"request": number, "id": span[0], "parent": span[1],
                                         "name": span[2], "start": span[3], "end": span[4]}) + "\n")
        details["trace_totals"] = totals
    else:
        samples = measure(args.workload, args.seed, args.seconds, golden)
        metrics, details["unscaled_medians"] = end_to_end(samples)

    failed = sum(1 for s in samples if not s["ok"])
    details.update(samples=samples, heights=_heights(samples), metrics=metrics)
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)

    env = details["environment"]
    print(f"enricert benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}; python {env['python']}, nproc {env['nproc']}, "
          f"commit {env['commit'] or 'n/a'}, PYTHONHASHSEED {env['PYTHONHASHSEED']} "
          f"(workers {WORKER_HASH_SEED})")
    if details["heights"]:
        h = details["heights"]
        print(f"coefficient heights (digits): min {h['min']}, median {h['median']}, max {h['max']}")
    for s in samples:
        if not s["ok"]:
            print(f"FAILED {s['request']}: {s['reason']}")
    print(f"requests: {len(samples)} attempted, {failed} failed; details in "
          f"{(OUT / stem).relative_to(ROOT)}.json")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, value in details.get("unscaled_medians", {}).items():
        print(f"  unscaled median {name} = {value:.6g} s")
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
