"""Check that traced counts repeat exactly for a seed.

    python3 perfbench/repeat_check.py [--seed N] [--workload NAME ...]

Runs ``run.py --trace 1`` twice per workload with the same seed and compares
every count metric (``*.calls``, ``*.failed``, ``*_ratio``, ``records_*``).
Both runs also check every output, the traced ``builtin-full`` certificate
against the golden bytes included.  Exits 1 on any difference or failed run.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def is_count(name):
    last = name.rsplit(".", 1)[-1]
    return last in ("calls", "failed") or last.endswith("_ratio") or last.startswith("records_")


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run failed its output checks\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items() if is_count(k)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args()
    same = True
    for workload in args.workload:
        first, second = traced_run(workload, args.seed), traced_run(workload, args.seed)
        diff = sorted(k for k in first if first[k] != second.get(k))
        same = same and not diff
        print(f"{workload}: {len(first)} counts, "
              + ("identical" if not diff else "differ: " + ", ".join(
                  f"{k} {first[k]} vs {second.get(k)}" for k in diff)))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
