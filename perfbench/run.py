"""cventangle benchmark: the grid_scan, state_eval and oracle_verify workloads.

Run from the repository root:

    python3 perfbench/run.py --workload state_eval --seed 1 --seconds 25 --trace 0

One process, one closed-loop client, ``--workers 1`` for scans and at most two
BLAS threads.  Inputs are generated from ``--seed`` and reach the program only
as descriptor JSON.  Only cventangle's public entry points are timed
(``cli.run_scan``; ``json.loads`` -> ``states.parse_state_descriptor`` ->
``cli.evaluate_quantity`` -> ``json.dumps``; ``cli.main(["verify", ...])``),
and every output is checked against references coded in ``workloads.py``.

``--trace 0`` measures for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs a fixed amount of work once untraced and once with every
public function of the traced modules wrapped, reports the per-layer metrics,
and writes the spans to ``.perfbench/trace-<workload>-seed<seed>.jsonl.gz``.
The last stdout line is the JSON result; the line before it records the
machine, the tail percentile used and the outcome counts.  ``failed`` counts
unexpected failures only; the program's known defects (see ``workloads.py``)
are counted under ``known_defects`` and lower ``ok_ratio``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = min(2, os.cpu_count() or 1)
# must precede the first numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import TRACED_MODULES, Tracer, layer_metrics  # noqa: E402

WORKLOADS = ("grid_scan", "state_eval", "oracle_verify")

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "fock.build.calls": "count",
    "fock.build.self_ms": "ms",
    "fock.build_distinct_ratio": "ratio",
    "fock.negativity.self_ms": "ms",
    "fock.realign.self_ms": "ms",
    "fock.expect.self_ms": "ms",
    "phase_space.slice.calls": "count",
    "states.parse.calls": "count",
    "symplectic.is_physical.calls": "count",
    "symplectic.eigen.calls": "count",
    "realignment.gram.calls": "count",
    "realignment.gram_per_cell": "1/cell",
    **{f"{m}.{k}": u for m in TRACED_MODULES for k, u in (("calls", "count"), ("self_ms", "ms"))},
    "tracing_overhead_ratio": "ratio",
}

#: call_tail_ms is the highest percentile with at least this many calls beyond it.
TAIL_BEYOND = 10

#: Fixed work of a traced run: grid passes, requests (five blocks), verify passes.
TRACED_CALLS = {"grid_scan": 1, "state_eval": 5 * len(wl.BLOCK), "oracle_verify": 1}

SETUP_REPEATS = 5
WORK_DIR = ROOT / ".perfbench"


# ---------------------------------------------------------------------------
# workload steps: each call of a step makes one timed user-facing call,
# checks its output outside the timed region and returns (elapsed_ns, units)
# ---------------------------------------------------------------------------

def grid_scan_step(seed: int, tmp: str, around=contextlib.nullcontext):
    from cventangle import cli

    specs = wl.grid_scan_inputs(seed)
    paths = [os.path.join(tmp, f"map{i}.csv") for i in range(len(specs))]
    cells = sum(s.cells for s in specs)
    tally = wl.Tally()

    def step():
        with around():
            t0 = time.perf_counter_ns()
            for spec, path in zip(specs, paths):
                axis1, axis2 = (cli.ScanAxis.parse(a) for a in spec.axes)
                cli.run_scan(json.loads(spec.descriptor), spec.quantity, axis1, axis2, path, workers=1)
            elapsed = time.perf_counter_ns() - t0
        for spec, path in zip(specs, paths):
            wl.GRID_CHECKS[spec.quantity](spec, Path(path).read_text(), tally)
        return elapsed, cells

    return step, tally


def state_eval_step(seed: int, tmp: str, around=contextlib.nullcontext):
    from cventangle import cli, states

    stream = wl.state_eval_requests(seed)
    tally = wl.Tally()

    def step():
        req = next(stream)
        out = err = None
        with around():
            t0 = time.perf_counter_ns()
            try:
                out = json.dumps(cli.evaluate_quantity(
                    states.parse_state_descriptor(json.loads(req.text)), req.quantity))
            except Exception as exc:  # checked below; keep measuring
                err = exc
            elapsed = time.perf_counter_ns() - t0
        if out is not None:
            tally.add(*wl.check_record(req, json.loads(out)))
        elif wl.known_refusal(req, err):
            tally.add("refused", f"{req.kind}/{req.quantity} {type(err).__name__}: {req.text[:120]}")
        else:
            tally.add("wrong", f"{req.kind}/{req.quantity} raised {err!r}: {req.text[:120]}")
        return elapsed, 1

    return step, tally


def oracle_verify_step(seed: int, tmp: str, around=contextlib.nullcontext):
    """The verify suite has no inputs to vary; ``seed`` is accepted and unused."""
    from cventangle import cli

    tally = wl.Tally()

    def step():
        buf = io.StringIO()
        with around():
            t0 = time.perf_counter_ns()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(wl.VERIFY_ARGV)
            elapsed = time.perf_counter_ns() - t0
        wl.check_verify(rc, buf.getvalue(), tally)
        return elapsed, wl.VERIFY_CHECKS

    return step, tally


STEPS = {"grid_scan": grid_scan_step, "state_eval": state_eval_step,
         "oracle_verify": oracle_verify_step}

#: The argv a user would type for each workload; parsed once during set-up.
CLI_ARGV = {
    "grid_scan": ["scan", "--state", '{"family": "two_two", "a": 1, "b": 1, "c": 0}',
                  "--quantity", "classify", "--axes", "a:0.5:2:100", "--axes", "c:0:1.2:100",
                  "--out", "map.csv", "--workers", "1"],
    "state_eval": ["eval", "--state", '{"family": "photon_added_sts", "n": 1, "r": 1}',
                   "--quantity", "witness01"],
    "oracle_verify": wl.VERIFY_ARGV,
}


def warm_up(workload: str, tmp: str) -> None:
    """Import, build the CLI parser, and make one small call of each kind."""
    import numpy as np
    from cventangle import cli, errors, states

    cli.build_parser().parse_args(CLI_ARGV[workload])
    if workload == "grid_scan":
        for i, spec in enumerate(wl.grid_scan_inputs(0)):
            axes = [cli.ScanAxis.parse(a.rsplit(":", 1)[0] + ":8") for a in spec.axes]
            cli.run_scan(json.loads(spec.descriptor), spec.quantity, *axes,
                         os.path.join(tmp, f"warm{i}.csv"), workers=1)
    elif workload == "state_eval":
        rng = np.random.default_rng(0)
        for kind, quantity in dict.fromkeys(wl.BLOCK):
            req = wl.make_request(rng, kind, quantity)
            with contextlib.suppress(errors.CVEntangleError):
                cli.evaluate_quantity(states.parse_state_descriptor(json.loads(req.text)), quantity)
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", "--cutoff", "12", "--rmax", "0.3"])


def measure_setup(workload: str) -> list[float]:
    """Wall time of ``SETUP_REPEATS`` fresh interpreters that each start, import
    numpy, scipy and cventangle, build the CLI parser and warm up, then exit."""
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
            cwd=ROOT, capture_output=True, timeout=170, check=True,
        )
        out.append(time.perf_counter() - t0)
    return out


@contextlib.contextmanager
def temp_dir():
    WORK_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, int, int]:
    """Nearest-rank value of the highest integer percentile with at least
    ``TAIL_BEYOND`` samples above it, that percentile, and the samples above
    it.  With ``TAIL_BEYOND`` samples or fewer no percentile qualifies and the
    maximum (percentile 100) is returned."""
    ordered = sorted(values)
    n = len(ordered)

    def rank(p):
        return -(-p * n // 100)

    percentile = max((p for p in range(1, 100) if n - rank(p) >= TAIL_BEYOND), default=100)
    r = n if percentile == 100 else rank(percentile)
    return ordered[r - 1], percentile, n - r


def machine() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "cventangle").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_untraced(workload: str, seed: int, seconds: float) -> tuple[dict, wl.Tally, dict]:
    setup = measure_setup(workload)
    with temp_dir() as tmp:
        warm_up(workload, tmp)
        step, tally = STEPS[workload](seed, tmp)
        times, units = [], 0
        start = time.perf_counter()
        while True:
            elapsed, n = step()
            times.append(elapsed / 1e6)
            units += n
            spent = time.perf_counter() - start
            # a run of TAIL_BEYOND calls or fewer has no tail percentile, and
            # its reported tail would jump to the maximum; so such a run goes
            # on, up to twice ``seconds``, while one more call fits
            if spent >= seconds and (len(times) > TAIL_BEYOND
                                     or spent + elapsed / 1e9 > 2 * seconds):
                break
    tail_ms, percentile, beyond = tail(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput_per_s": units / (sum(times) / 1e3),
        "call_p50_ms": statistics.median(times),
        "call_tail_ms": tail_ms,
        "ok_ratio": tally.counts["ok"] / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "calls": len(times),
        "tail_percentile": percentile,
        "samples_beyond_tail": beyond,
        "setup_runs_s": setup,
    }
    return metrics, tally, detail


def run_traced(workload: str, seed: int) -> tuple[dict, wl.Tally, dict]:
    import cventangle

    calls = TRACED_CALLS[workload]
    tracer = Tracer()
    with temp_dir() as tmp:
        warm_up(workload, tmp)
        tally = wl.Tally()

        def timed(around=contextlib.nullcontext):
            step, one = STEPS[workload](seed, tmp, around)
            total = sum(step()[0] for _ in range(calls))
            tally.merge(one)
            return total

        # the same inputs run untraced before and after the traced pass, so
        # warm-up effects do not land on one side of the overhead ratio
        before = timed()
        tracer.install(cventangle)
        try:
            traced = timed(lambda: tracer.call(workload))
        finally:
            tracer.uninstall()
        after = timed()
    cells = 0
    if workload == "grid_scan":  # only the classify map computes Gram results
        cells = calls * sum(s.cells for s in wl.grid_scan_inputs(seed) if s.quantity == "classify")
    metrics = layer_metrics(tracer, cells)
    metrics["tracing_overhead_ratio"] = 2 * traced / (before + after)
    WORK_DIR.mkdir(exist_ok=True)
    spans_path = WORK_DIR / f"trace-{workload}-seed{seed}.jsonl.gz"
    tracer.write(spans_path)
    detail = {"traced_calls": calls, "spans": len(tracer.spans),
              "spans_file": str(spans_path.relative_to(ROOT)),
              "untraced_s": [before / 1e9, after / 1e9], "traced_s": traced / 1e9}
    return metrics, tally, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "cventangle" / "__init__.py").is_file():
        print(f"error: no cventangle sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        with temp_dir() as tmp:
            warm_up(args.setup_probe, tmp)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    if args.trace:
        metrics, tally, detail = run_traced(args.workload, args.seed)
        units = PER_LAYER
    else:
        metrics, tally, detail = run_untraced(args.workload, args.seed, args.seconds)
        units = END_TO_END
    detail.update(outcomes=tally.counts, known_defects=tally.known_defects, examples=tally.examples)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "machine": machine(), **detail}))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
