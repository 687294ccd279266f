"""Self-test of the benchmark harness.  Run from the repository root:

    python3 perfbench/selftest.py

Checks the self-time arithmetic on a synthetic nested-span trace, that the
tracer patches a function at every alias and restores it, that the same seed
yields byte-identical generated inputs, that BENCHMARK.json names exactly
the metrics and workloads the harness reports, and that known defects are
counted apart from unexpected failures.  It does not time anything.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import run  # sets up sys.path and the BLAS thread count
import tracer
import workloads as wl


def check_self_times() -> None:
    # call 1: a [0, 100] with children b [10, 40] (child c [15, 20]) and d [50, 90]
    names = ["root", "m.a", "m.b", "n.c", "n.d"]
    spans = [
        (3, 2, 1, 3, 15, 20),
        (2, 1, 1, 2, 10, 40),
        (4, 1, 1, 4, 50, 90),
        (1, 0, 1, 1, 0, 100),
        (5, 0, 2, 1, 200, 210),  # call 2: a alone
    ]
    assert tracer.self_times_ns(spans) == {1: 30, 2: 25, 3: 5, 4: 40, 5: 10}
    summary = tracer.summarize(names, spans)
    assert summary["m.a"] == {"calls": 2, "self_ms": 40 / 1e6}, summary
    assert summary["n.c"] == {"calls": 1, "self_ms": 5 / 1e6}, summary


def check_alias_patching() -> None:
    pkg = types.ModuleType("pkg")
    modules = {}
    for short in tracer.TRACED_MODULES:
        mod = types.ModuleType(f"pkg.{short}")
        setattr(pkg, short, mod)
        modules[short] = mod

    def is_physical(x):
        return x >= 0

    is_physical.__module__ = "pkg.symplectic"
    modules["symplectic"].is_physical = is_physical
    modules["states"].is_physical = is_physical  # imported by name

    def parse(x):
        return modules["states"].is_physical(x)

    parse.__module__ = "pkg.states"
    modules["states"].parse = parse

    tr = tracer.Tracer()
    tr.install(pkg)
    try:
        assert modules["states"].is_physical is modules["symplectic"].is_physical is not is_physical
        with tr.call("request"):
            assert modules["states"].parse(1)
    finally:
        tr.uninstall()
    assert modules["states"].is_physical is is_physical and modules["states"].parse is parse
    summary = tracer.summarize(tr.names, tr.spans)
    assert summary["symplectic.is_physical"]["calls"] == 1, summary
    assert summary["states.parse"]["calls"] == 1, summary
    by_name = {tr.names[s[3]]: s for s in tr.spans}
    assert by_name["symplectic.is_physical"][1] == by_name["states.parse"][0]
    assert {s[2] for s in tr.spans} == {1}


def _inputs(seed: int, requests: int = 300) -> bytes:
    stream = wl.state_eval_requests(seed)
    parts = [json.dumps([s.descriptor, s.quantity, s.axes]) for s in wl.grid_scan_inputs(seed)]
    parts += [json.dumps([r.text, r.quantity]) for r, _ in zip(stream, range(requests))]
    return "\n".join(parts).encode()


def check_seeded_inputs() -> None:
    assert _inputs(7) == _inputs(7)
    assert _inputs(7) != _inputs(8)


def check_benchmark_json() -> None:
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def check_tail() -> None:
    assert run.tail(list(range(1, 1001))) == (990, 99, 10)
    assert run.tail(list(range(1, 401))) == (388, 97, 12)
    assert run.tail(list(range(1, 12))) == (1, 9, 10)
    assert run.tail([5.0, 1.0, 3.0]) == (5.0, 100, 0)


def check_outcomes() -> None:
    tally = wl.Tally()
    for outcome, n in (("ok", 5), ("refused", 2), ("band", 3), ("wrong", 1)):
        tally.add(outcome, n=n)
    assert (tally.attempted, tally.failed, tally.known_defects) == (11, 1, 5)
    assert not tally.correct

    class ConvergenceError(Exception):
        pass

    def req(kind, quantity, n):
        return wl.Request(json.dumps({"n": n}), quantity, kind, False, {}, False, False)

    assert wl.known_refusal(req("photon", "swap", 0.0), ConvergenceError())
    assert not wl.known_refusal(req("photon", "swap", 0.5), ConvergenceError())
    assert not wl.known_refusal(req("photon", "witness01", 0.0), ConvergenceError())
    assert not wl.known_refusal(req("photon", "bounds", 0.0), ValueError())


def main() -> int:
    for check in (check_self_times, check_alias_patching, check_seeded_inputs,
                  check_benchmark_json, check_tail, check_outcomes):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
