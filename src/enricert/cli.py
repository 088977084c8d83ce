"""Command line driver.

Three subcommands: ``verify`` runs the built-in checks (optionally narrowed
to one family or one check group, optionally extended by a JSON input file
of extra families and maps), ``classify`` prints the finite classification
with its pruning trace, and ``report`` writes the full certificate.

``parse_args`` reads the command line from a table of this fixed grammar
(``_OPTIONS``, whose --family choices are cover.BUILTIN_FAMILIES) with no
argparse import, which would cost a filtered run more than its arithmetic.
It reads what argparse read: ``--name value`` and ``--name=value``, unique
prefixes such as ``--fam 3``, the last of a repeated option.
``-h``/``--help`` and ``--version`` print to standard output and exit 0; a
usage error prints the usage line and an ``error:`` line to standard error
and exits 2.  The help texts are constants in argparse's 80-column layout,
so they do not re-wrap to the terminal.

Exit codes: 0 all selected checks pass, 1 at least one check failed,
2 the input could not be used (malformed expression, schema violation, or
an object breaking a structural invariant) or the certificate could not be
written to ``--out`` ("output error: cannot write PATH: reason", after the
records are printed).  Checks never stop early; a failing run still reports
every record.
"""

from __future__ import annotations

import re
import sys
from typing import NamedTuple, NoReturn, Optional, Tuple

from . import __version__
from .certificate import Certificate, FILTERABLE_GROUPS, run_checks, verify_all
from .classify import RULE_STATEMENTS, admissible_pairs, allowed_orders
from .cover import BUILTIN_FAMILIES
from .errors import EngineError, InvariantError, ParseError, SchemaError
from .ingest import ingest


def _checks(cert: Certificate) -> int:
    """The number of records that are checks, not info notes."""
    return sum(1 for rec in cert.records if rec.result != "info")


def _print_certificate(cert: Certificate, stream) -> None:
    for rec in cert.records:
        tag = {"pass": "PASS", "fail": "FAIL", "info": "info"}[rec.result]
        line = f"[{tag}] {rec.id}"
        if rec.value is not None:
            line += f": {rec.value}"
        print(line, file=stream)
        if rec.failed and rec.witness:
            print(f"       witness: {rec.witness}", file=stream)
    checked = _checks(cert)
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
    print(f"wrote {args.out}: overall {cert.overall} ({_checks(cert)} checks)")
    return 0 if cert.overall == "pass" else 1


# -- the command line's grammar ----------------------------------------------

_HELP_NAMES = ("-h", "--help")
_TOP_NAMES = _HELP_NAMES + ("--version",)

# Each subcommand's options and the values each takes (None: any FILE).  A
# choice option defaults to "all", a FILE option to None; _REQUIRED lists the
# options a subcommand cannot go without.
_OPTIONS = {
    "verify": {
        "--family": tuple(map(str, BUILTIN_FAMILIES)) + ("all",),
        "--check": FILTERABLE_GROUPS + ("all",),
        "--input": None,
        "--out": None,
    },
    "classify": {},
    "report": {"--out": None},
}
_REQUIRED = {"report": ("--out",)}

# Usage lines and help texts, keyed by subcommand ("" for the top level), as
# argparse laid them out for an 80-column terminal.
_USAGE = {
    "": "usage: enricert [-h] [--version] {verify,classify,report} ...\n",
    "verify": (
        "usage: enricert verify [-h] [--family {1,2,3,all}]\n"
        "                       [--check {invariance,order,index,cover,moduli,all}]\n"
        "                       [--input FILE] [--out FILE]\n"
    ),
    "classify": "usage: enricert classify [-h]\n",
    "report": "usage: enricert report [-h] --out FILE\n",
}
_HELP = {
    "": """
exact certification of the double-plane automorphism families and their
classification

positional arguments:
  {verify,classify,report}
    verify              run checks and print one line per record
    classify            print admissible pairs, allowed orders, pruning trace
    report              write the full certificate JSON

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""",
    "verify": """
options:
  -h, --help            show this help message and exit
  --family {1,2,3,all}  restrict to the checks tagged with one built-in family
  --check {invariance,order,index,cover,moduli,all}
                        restrict to one check group
  --input FILE          JSON document of extra families and maps to check
  --out FILE            also write the certificate JSON here
""",
    "classify": """
options:
  -h, --help  show this help message and exit
""",
    "report": """
options:
  -h, --help  show this help message and exit
  --out FILE
""",
}

_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")


class Args(NamedTuple):
    """A parsed command line; an option its subcommand lacks is None."""

    command: str
    family: Optional[str] = None
    check: Optional[str] = None
    input: Optional[str] = None
    out: Optional[str] = None


def _fail(command: str, message: str) -> NoReturn:
    prog = f"enricert {command}".rstrip()
    sys.stderr.write(f"{_USAGE[command]}{prog}: error: {message}\n")
    raise SystemExit(2)


def _read(token: str, names) -> Optional[Tuple[str, Optional[str]]]:
    """Read ``token`` (not "--") as argparse would among the option
    ``names``: (name, attached value or None) for an option, ("", None)
    for an unknown option, None for a value."""
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    if token[1] != "-":
        if token[:2] in names:  # -hx: -h with x attached
            return token[:2], token[2:]
    else:
        head, eq, value = token.partition("=")
        matches = [name for name in names if name.startswith(head)]
        if len(matches) == 1:
            return matches[0], value if eq else None
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return "", None


def parse_args(argv) -> Args:
    """Read a command line, as argparse would have read this grammar.

    ``--help`` and ``--version`` print to standard output and raise
    ``SystemExit(0)``; a usage error prints the usage line and the error to
    standard error and raises ``SystemExit(2)``.  Tokens that fit nowhere
    are reported together at the end, as argparse did.
    """
    argv = list(argv)
    command, options, names = "", {}, _TOP_NAMES
    given, extras = {}, []
    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if token == "--" and command:
            extras += argv[i - 1:]
            break
        read = None if token == "--" else _read(token, names)
        if read is None:
            if command:
                extras.append(token)
            elif token in _OPTIONS:
                command, options = token, _OPTIONS[token]
                names = _HELP_NAMES + tuple(options)
            else:
                listed = ", ".join(map(repr, _OPTIONS))
                _fail("", f"argument command: invalid choice: {token!r} (choose from {listed})")
            continue
        name, value = read
        if not name:
            extras.append(token)
            continue
        if name not in options:  # -h, --help or --version
            if value is not None:
                shown = "-h/--help" if name in _HELP_NAMES else name
                _fail(command, f"argument {shown}: ignored explicit argument {value!r}")
            if name == "--version":
                sys.stdout.write(f"enricert {__version__}\n")
            else:
                sys.stdout.write(_USAGE[command] + _HELP[command])
            raise SystemExit(0)
        if value is None:
            if i == len(argv) or argv[i] == "--" or _read(argv[i], names):
                _fail(command, f"argument {name}: expected one argument")
            value = argv[i]
            i += 1
        choices = options[name]
        if choices is not None and value not in choices:
            listed = ", ".join(map(repr, choices))
            _fail(command, f"argument {name}: invalid choice: {value!r} (choose from {listed})")
        given[name] = value
    if not command:
        _fail("", "the following arguments are required: command")
    missing = [name for name in _REQUIRED.get(command, ()) if name not in given]
    if missing:
        _fail(command, "the following arguments are required: " + ", ".join(missing))
    if extras:
        _fail("", "unrecognized arguments: " + " ".join(extras))
    return Args(command, **{
        name[2:]: given.get(name, "all" if choices else None)
        for name, choices in options.items()
    })


_COMMANDS = {"verify": _cmd_verify, "classify": _cmd_classify, "report": _cmd_report}

_ERROR_PREFIXES = (  # an exit-2 error's stderr prefix; the first matching kind wins
    (ParseError, "parse error"), (SchemaError, "schema violation"),
    (InvariantError, "invariant violation"), (OSError, "input error"), (EngineError, "error"),
)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return _COMMANDS[args.command](args)
    except (EngineError, OSError) as exc:
        prefix = next(text for kind, text in _ERROR_PREFIXES if isinstance(exc, kind))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
