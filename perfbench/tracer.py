"""Span tracing of the enricert package, installed from outside it.

``Tracer(enricert)`` wraps every public module-level function of each
package module, plus the arithmetic and output methods the benchmark names,
and rebinds each wrapped function wherever a package module imported it.
The package itself is only read.

Every call is a span with a name such as ``maps.compose``.  Per name the
tracer keeps the call count, the number of calls that raised, the total time
and the self time (span time minus the time covered by its child spans).
For a few functions it also keeps the set of distinct inputs.  Spans outside
``field`` and ``poly`` are kept individually (id, parent id, name, start,
end); the arithmetic layers run hundreds of thousands of calls per request
and are only aggregated.

``CheckRecord`` constructions are counted, and each record is charged the
time since the previous construction (or since its check list started), by
check group.
"""

import functools
import importlib
import inspect
import time

MODULES = (
    "field", "poly", "parsing", "cover", "maps", "forms", "lattices",
    "moduli", "classify", "certificate", "ingest", "cli",
)

# Aggregated only: their spans are too many to keep one by one.
HOT_MODULES = ("field", "poly")

# (module, class, method) -> span name within the module.
METHODS = {
    ("field", "Cyclo", "__mul__"): "cyclo_mul",
    ("field", "Cyclo", "inverse"): "cyclo_inverse",
    ("poly", "MPoly", "__mul__"): "mpoly_mul",
    ("poly", "MPoly", "substitute"): "substitute",
    ("poly", "RatFunc", "__init__"): "ratfunc_new",
    ("certificate", "Certificate", "to_json"): "to_json",
}

# Checks build their record lists in these; a record's time starts here.
RECORD_LISTS = ("certificate.builtin_records", "certificate.document_records")


def _family_key(fam):
    return (fam.kind, str(fam.branch), tuple(fam.parameters))


def _map_key(phi):
    return (tuple(phi.variables), tuple(str(phi.coords[v]) for v in phi.variables))


def _text_key(args, kwargs):
    return args[0] if args else kwargs["text"]


def _family_arg_key(args, kwargs):
    return _family_key(args[0] if args else kwargs["fam"])


def _family_map_key(args, kwargs):
    fam = args[0] if args else kwargs["fam"]
    phi = args[1] if len(args) > 1 else kwargs["phi"]
    return (_family_key(fam), _map_key(phi))


# Span name -> key of the call's inputs, for the distinct-input ratios.
INPUT_KEYS = {
    "parsing.parse_expression": _text_key,
    "cover.k3_cover": _family_arg_key,
    "maps.check_equation_invariance": _family_map_key,
    "forms.bitwoform_pullback_ratio": _family_map_key,
}


class _Stat:
    __slots__ = ("calls", "failed", "self_s", "total_s", "inputs")

    def __init__(self, keyed):
        self.calls = 0
        self.failed = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.inputs = set() if keyed else None


class Tracer:
    """Wraps the package's public functions until ``uninstall()``."""

    def __init__(self, package):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stats = {}
        self.spans = []
        self.next_id = 1
        # Frames of open spans: [time covered by children, span id].
        self.stack = [[0.0, 0]]
        self.records_computed = 0
        self.group_s = {}
        self.record_mark = self.origin
        self.patched = []
        self._install(package)

    # -- installation -----------------------------------------------------

    def _install(self, package):
        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[obj] = self._wrap(f"{short}.{name}", obj, short)
        for target in (package,) + tuple(modules.values()):
            for name, obj in list(vars(target).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(target, name, wrapped[obj])
        for (short, cls_name, meth), span in METHODS.items():
            cls = getattr(modules[short], cls_name)
            original = vars(cls)[meth]
            replacement = self._wrap(f"{short}.{span}", original, short)
            for name, obj in list(vars(cls).items()):
                if obj is original:
                    self._patch(cls, name, replacement)
        record_cls = modules["certificate"].CheckRecord
        self._patch(record_cls, "__init__", self._wrap_record(record_cls.__init__))

    def _patch(self, target, name, value):
        self.patched.append((target, name, getattr(target, name)))
        setattr(target, name, value)

    def uninstall(self):
        for target, name, original in reversed(self.patched):
            setattr(target, name, original)
        self.patched = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, module):
        stat = self.stats[name] = _Stat(name in INPUT_KEYS)
        key = INPUT_KEYS.get(name)
        keep = module not in HOT_MODULES
        starts_records = name in RECORD_LISTS
        stack = self.stack
        clock = self.clock
        tracer = self

        def traced(*args, **kwargs):
            if key is not None:
                stat.inputs.add(key(args, kwargs))
            parent = stack[-1][1]
            if keep:
                span_id = tracer.next_id
                tracer.next_id += 1
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            if starts_records:
                tracer.record_mark = t0
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.failed += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[0]
                stack[-1][0] += elapsed
                if keep:
                    tracer.spans.append(
                        (span_id, parent, name, t0 - tracer.origin, t1 - tracer.origin)
                    )

        return functools.wraps(fn)(traced)

    def _wrap_record(self, init):
        tracer = self

        def traced_init(record, *args, **kwargs):
            init(record, *args, **kwargs)
            now = tracer.clock()
            tracer.records_computed += 1
            tracer.group_s[record.group] = (
                tracer.group_s.get(record.group, 0.0) + now - tracer.record_mark
            )
            tracer.record_mark = now

        return traced_init

    # -- results ----------------------------------------------------------

    def report(self):
        return {
            "stats": {
                name: {
                    "calls": s.calls,
                    "failed": s.failed,
                    "self_s": s.self_s,
                    "total_s": s.total_s,
                    "distinct": None if s.inputs is None else len(s.inputs),
                }
                for name, s in sorted(self.stats.items())
            },
            "records_computed": self.records_computed,
            "group_s": self.group_s,
            "spans": self.spans,
        }
