"""One benchmark request in a fresh interpreter.

Usage: python3 perfbench/worker.py '<request json>'

The request names an operation:

- ``{"op": "builtin"}`` runs ``verify_all()`` and ``Certificate.to_json()``;
- ``{"op": "cli", "argv": [...]}`` runs ``enricert.cli.main(argv)`` with
  standard output captured.

With ``"trace": true`` the public functions of every package module are
wrapped before the call (see ``tracer.py``).  The worker prints one JSON
line: the monotonic time at which ``import enricert.cli`` completed, the wall
and CPU seconds of the call, the peak RSS, the exit code and output of the
call, and the trace when one was taken.
"""

import time

import io
import json
import os
import resource
import sys
import traceback
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import enricert  # noqa: E402
import enricert.cli  # noqa: E402  (the console script's entry module)

IMPORTED_AT = time.monotonic()

sys.path.insert(0, HERE)


def _run(request):
    op = request["op"]
    if op == "builtin":
        return None, enricert.verify_all().to_json()
    if op == "cli":
        buf = io.StringIO()
        with redirect_stdout(buf):
            try:
                code = enricert.cli.main(request["argv"])
            except SystemExit as exc:
                code = exc.code
        return code, buf.getvalue()
    raise ValueError(f"unknown op {op!r}")


def main() -> int:
    request = json.loads(sys.argv[1])
    tracer = None
    if request.get("trace"):
        from tracer import Tracer

        tracer = Tracer(enricert)
    out = {"imported_at": IMPORTED_AT}
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    try:
        code, text = _run(request)
    except Exception:
        out["error"] = traceback.format_exc()
        code, text = None, ""
    out["wall_s"] = time.perf_counter() - wall0
    out["cpu_s"] = time.process_time() - cpu0
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["exit_code"] = code
    out["output"] = text
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.report()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
