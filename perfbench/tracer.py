"""In-memory span tracer that wraps the public functions of cventangle modules.

The tracer lives entirely in the benchmark: it replaces each public
module-level function with a timing wrapper at every module attribute that
refers to it (``states.is_physical`` is ``symplectic.is_physical`` imported by
name, ``cli.witness_fock`` is ``fock.witness_fock``), so calls through any
alias land in the same span name.  Spans stay in memory until the run ends.

A span is ``(span_id, parent_id, call_id, name_index, start_ns, end_ns)``.
``parent_id`` 0 means the span has no traced parent; ``call_id`` groups the
spans of one user-facing call (one scan pass, one request, one verify pass).
"""

from __future__ import annotations

import collections
import contextlib
import functools
import gzip
import inspect
import itertools
import json
import time

#: Modules whose public functions are traced, in cventangle's layer order.
TRACED_MODULES = (
    "cli",
    "states",
    "symplectic",
    "realignment",
    "witness",
    "phase_space",
    "bounds",
    "fock",
    "crosscheck",
)

#: Fock constructors whose argument tuples are recorded to count distinct builds.
FOCK_BUILDERS = (
    "tmsv_fock",
    "squeezed_thermal_fock",
    "photon_added_sts_fock",
    "coherent_mixture_fock",
)


class Tracer:
    """Records spans for wrapped functions; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.build_keys: collections.Counter = collections.Counter()
        self.call_id = 0
        self._stack = [0]
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, name: str, fn, record_args: bool = False):
        """Return a wrapper of ``fn`` that records one span named ``name`` per call."""
        idx = self._name_index(name)
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns
        keys = self.build_keys if record_args else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            if keys is not None:
                keys[(name, args, tuple(sorted(kwargs.items())))] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, self.call_id, idx, t0, t1))

        return wrapper

    @contextlib.contextmanager
    def call(self, name: str):
        """One user-facing call: a root span under a fresh call id."""
        self.call_id += 1
        idx = self._name_index(name)
        sid, parent = next(self._ids), self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, self.call_id, idx, t0, t1))

    # -- patching ----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function of the traced modules of ``package`` and
        patch it at every module attribute (including ``package``) that aliases it."""
        modules = [getattr(package, name) for name in TRACED_MODULES]
        originals: dict[int, object] = {}
        wrappers: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__ or id(obj) in wrappers:
                    continue
                originals[id(obj)] = obj
                wrappers[id(obj)] = self.wrap(f"{short}.{attr}", obj, record_args=attr in FOCK_BUILDERS)
        for mod in modules + [package]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and originals[id(obj)] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as gzip'd JSON lines: a header with the span names,
        then one ``[id, parent, call, name_index, start_ns, end_ns]`` per line."""
        origin = min((s[4] for s in self.spans), default=0)
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for sid, parent, call, idx, t0, t1 in self.spans:
                fh.write(f"[{sid},{parent},{call},{idx},{t0 - origin},{t1 - origin}]\n")


def self_times_ns(spans) -> dict[int, int]:
    """Self time of each span: its duration minus the durations of its direct
    children (children are recorded with ``parent_id`` equal to its id)."""
    child_total: dict[int, int] = collections.defaultdict(int)
    for _sid, parent, _call, _idx, t0, t1 in spans:
        if parent:
            child_total[parent] += t1 - t0
    return {sid: (t1 - t0) - child_total.get(sid, 0) for sid, _p, _c, _i, t0, t1 in spans}


def summarize(names, spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls`` and ``self_ms`` (sum of self times)."""
    selfs = self_times_ns(spans)
    out: dict[str, dict[str, float]] = {}
    for sid, _parent, _call, idx, _t0, _t1 in spans:
        entry = out.setdefault(names[idx], {"calls": 0, "self_ms": 0.0})
        entry["calls"] += 1
        entry["self_ms"] += selfs[sid] / 1e6
    return out


def layer_metrics(tracer: Tracer, cells: int) -> dict[str, float]:
    """Per-layer metrics of one traced run (zero where a layer was not called).

    ``cells`` is the number of classify-map cells evaluated in the traced
    work (the only scan cells that compute a Gram result); it is the base of
    ``realignment.gram_per_cell``.
    """
    summary = summarize(tracer.names, tracer.spans)

    def calls(*names):
        return sum(summary.get(n, {}).get("calls", 0) for n in names)

    def self_ms(*names):
        return sum(summary.get(n, {}).get("self_ms", 0.0) for n in names)

    def module(prefix):
        return [n for n in summary if n.startswith(prefix + ".")]

    builders = [f"fock.{n}" for n in FOCK_BUILDERS]
    build_calls = calls(*builders)
    gram_calls = calls("realignment.realigned_gram_covariance")
    out = {
        "fock.build.calls": build_calls,
        "fock.build.self_ms": self_ms(*builders),
        "fock.build_distinct_ratio": len(tracer.build_keys) / build_calls if build_calls else 0.0,
        "fock.negativity.self_ms": self_ms("fock.negativity_fock"),
        "fock.realign.self_ms": self_ms("fock.realignment_trace_norm_fock"),
        "fock.expect.self_ms": self_ms(
            "fock.witness_fock", "fock.witness_operator", "fock.expectation_two_mode"
        ),
        "phase_space.slice.calls": calls("phase_space.slice_integral"),
        "states.parse.calls": calls("states.parse_state_descriptor"),
        "symplectic.is_physical.calls": calls("symplectic.is_physical"),
        "symplectic.eigen.calls": calls("symplectic.symplectic_eigenvalues"),
        "realignment.gram.calls": gram_calls,
        "realignment.gram_per_cell": gram_calls / cells if cells else 0.0,
    }
    for name in TRACED_MODULES:
        names = module(name)
        out[f"{name}.calls"] = calls(*names)
        out[f"{name}.self_ms"] = self_ms(*names)
    return out
