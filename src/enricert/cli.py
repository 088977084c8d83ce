"""Command line driver.

Three subcommands: ``verify`` runs the built-in checks (optionally narrowed
to one family or one check group, optionally extended by a JSON input file
of extra families and maps), ``classify`` prints the finite classification
with its pruning trace, and ``report`` writes the full certificate.

Exit codes: 0 all selected checks pass, 1 at least one check failed,
2 the input could not be used (malformed expression, schema violation, or
an object breaking a structural invariant) or the certificate could not be
written to ``--out`` ("output error: cannot write PATH: reason", after the
records are printed).  Checks never stop early; a failing run still reports
every record.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import __version__
from .certificate import Certificate, FILTERABLE_GROUPS, run_checks, verify_all
from .classify import RULE_STATEMENTS, admissible_pairs, allowed_orders
from .errors import EngineError, InvariantError, ParseError, SchemaError
from .ingest import ingest


def _print_certificate(cert: Certificate, stream) -> None:
    for rec in cert.records:
        tag = {"pass": "PASS", "fail": "FAIL", "info": "info"}[rec.result]
        line = f"[{tag}] {rec.id}"
        if rec.value is not None:
            line += f": {rec.value}"
        print(line, file=stream)
        if rec.failed and rec.witness:
            print(f"       witness: {rec.witness}", file=stream)
    checked = sum(1 for rec in cert.records if rec.result != "info")
    noted = len(cert.records) - checked
    summary = f"overall: {cert.overall} ({checked} checks"
    summary += f", {noted} notes)" if noted else ")"
    print(summary, file=stream)
    failure = cert.first_failure
    if failure is not None:
        print(f"first failure: {failure.id}", file=stream)


def _write_out(cert: Certificate, path: Optional[str]) -> bool:
    """Write the certificate JSON to ``path``, if given; False, reported as
    an output error, when it cannot be written."""
    if path is None:
        return True
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(cert.to_json())
    except OSError as exc:
        reason = exc.strerror or exc
        print(f"output error: cannot write {path}: {reason}", file=sys.stderr)
        return False
    return True


def _cmd_verify(args) -> int:
    document = None
    if args.input is not None:
        document = ingest(args.input)
    cert = run_checks(family=args.family, check=args.check, document=document)
    _print_certificate(cert, sys.stdout)
    if not _write_out(cert, args.out):
        return 2
    return 0 if cert.overall == "pass" else 1


def _cmd_classify(args) -> int:
    out = admissible_pairs()
    print("admissible (order, index) pairs:")
    for n, index in out.pairs:
        print(f"  ({n}, {index})")
    print("allowed orders: " + ", ".join(str(n) for n in allowed_orders()))
    print("pruning trace:")
    for record in out.trace:
        n, index = record.pair
        print(f"  ({n}, {index}) excluded by {record.rule}:")
        print(f"      {RULE_STATEMENTS[record.rule]}")
    return 0


def _cmd_report(args) -> int:
    cert = verify_all()
    if not _write_out(cert, args.out):
        return 2
    checked = sum(1 for rec in cert.records if rec.result != "info")
    print(f"wrote {args.out}: overall {cert.overall} ({checked} checks)")
    return 0 if cert.overall == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enricert",
        description="exact certification of the double-plane automorphism "
        "families and their classification",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
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
    verify.set_defaults(fn=_cmd_verify)

    classify = sub.add_parser(
        "classify", help="print admissible pairs, allowed orders, pruning trace"
    )
    classify.set_defaults(fn=_cmd_classify)

    report = sub.add_parser("report", help="write the full certificate JSON")
    report.add_argument("--out", metavar="FILE", required=True)
    report.set_defaults(fn=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"schema violation: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
