"""Command-line front end: evaluate single states, scan parameter grids,
run the oracle cross-check suite.

Exit codes: 0 success, 2 invalid input, 3 numeric-domain failure, 4 I/O
error, 5 verification tolerance breach.  Machine output goes to stdout as
JSON (or to ``--out`` as CSV for scans); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from . import bounds as bounds_mod
from . import crosscheck, witness
from .errors import CVEntangleError, InvalidArgumentError, NumericDomainError
from .states import family_named, family_of, parse_state_descriptor, state_descriptor

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERIC = 3
EXIT_IO = 4
EXIT_VERIFY = 5

WORKERS_ENV = "CV_ENTANGLE_WORKERS"


def _expectation(value: float) -> dict:
    return {"value": value, "entangled": witness.detects_entanglement(value)}


def _bounds_record(report: bounds_mod.BoundReport) -> dict:
    detects = witness.detects_entanglement
    entangled = detects(report.witness_value_01) or detects(report.swap_value)
    return {**report.to_record(), "entangled": entangled}


#: JSON record fields of each quantity, from the value its evaluator returns.
_RECORDS = {
    "optimal_witness": lambda opt: {
        "mu1": opt.params.mu1,
        "mu2": opt.params.mu2,
        "muMinus": opt.mu_minus,
        "muPlus": opt.mu_plus,
        **_expectation(opt.value),
    },
    "witness01": lambda value: {"mu1": 0.0, "mu2": 1.0, **_expectation(value)},
    "swap": _expectation,
    "realignment_norm": lambda result: result.to_record(),
    "classify": dict,
    "bounds": _bounds_record,
}

QUANTITIES = tuple(_RECORDS)


def _evaluator(family, quantity: str):
    """The family's evaluator for ``quantity``; ``bounds`` is derived wherever
    the family evaluates both ``witness01`` and ``swap``."""
    if quantity == "bounds" and {"witness01", "swap"} <= family.quantities.keys():
        w01, swap = family.quantities["witness01"], family.quantities["swap"]
        return lambda state: bounds_mod.bound_report(w01(state), swap(state))
    if quantity not in family.quantities:
        raise InvalidArgumentError(f"{quantity} is not available for family {family.name}")
    return family.quantities[quantity]


def evaluate_quantity(state, quantity: str) -> dict:
    """Route one state/quantity pair through the family table; returns the JSON record.

    Overflow and singular linear algebra inside an engine are reported as
    :class:`NumericDomainError` (exit 3, or an ``invalid`` scan cell).
    """
    if quantity not in _RECORDS:
        raise InvalidArgumentError(f"unknown quantity {quantity!r} (choose from {QUANTITIES})")
    family = family_of(state)
    evaluate = _evaluator(family, quantity)
    try:
        fields = _RECORDS[quantity](evaluate(state))
    except (OverflowError, np.linalg.LinAlgError) as exc:
        raise NumericDomainError(f"{quantity} left the floating-point domain: {exc}") from exc
    return {"state": state_descriptor(state), "quantity": quantity, **fields}


def _scan_value_verdict(record: dict, quantity: str) -> tuple[float, str]:
    if quantity in ("optimal_witness", "witness01", "swap"):
        return record["value"], "entangled" if record["entangled"] else "undetected"
    if quantity == "realignment_norm":
        return record["norm"], record["verdict"]
    if quantity == "classify":
        value = record["norm"] if record["norm"] is not None else math.nan
        return value, record["verdict"]
    if quantity == "bounds":
        return record["crenLower"], "entangled" if record["entangled"] else "undetected"
    raise InvalidArgumentError(f"unknown quantity {quantity!r}")


@dataclass(frozen=True)
class ScanAxis:
    name: str
    lo: float
    hi: float
    steps: int

    @classmethod
    def parse(cls, text: str) -> "ScanAxis":
        parts = text.split(":")
        if len(parts) != 4:
            raise InvalidArgumentError(f"axis must be name:min:max:steps, got {text!r}")
        try:
            name, lo, hi, steps = parts[0], float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError as exc:
            raise InvalidArgumentError(f"axis {text!r} has a non-numeric field: {exc}") from exc
        if steps < 2:
            raise InvalidArgumentError(f"axis {name!r} needs steps >= 2, got {steps}")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidArgumentError(f"axis {name!r} range must be finite")
        return cls(name=name, lo=lo, hi=hi, steps=steps)

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.steps)


def _scan_row(task) -> list[tuple[float, str]]:
    base, quantity, axis1_name, v1, axis2_name, values2 = task
    out = []
    for v2 in values2:
        doc = dict(base)
        doc[axis1_name] = float(v1)
        doc[axis2_name] = float(v2)
        try:
            state = parse_state_descriptor(doc)
            record = evaluate_quantity(state, quantity)
            out.append(_scan_value_verdict(record, quantity))
        except CVEntangleError:
            out.append((math.nan, "invalid"))
    return out


def run_scan(
    base_descriptor: dict,
    quantity: str,
    axis1: ScanAxis,
    axis2: ScanAxis,
    out_path: str,
    workers: int = 1,
) -> None:
    """Write the grid scan CSV (header param1,param2,value,verdict; row-major
    with axis1 outermost).  Output is written atomically and is byte-identical
    for any worker count."""
    family = family_named(base_descriptor.get("family"))
    if not family.axes:
        raise InvalidArgumentError(f"family {family.name!r} does not support scanning")
    for axis in (axis1, axis2):
        if axis.name not in family.axes:
            raise InvalidArgumentError(
                f"axis {axis.name!r} is not a parameter of family {family.name!r} "
                f"(choose from {sorted(family.axes)})"
            )
    if quantity not in QUANTITIES:
        raise InvalidArgumentError(f"unknown quantity {quantity!r} (choose from {QUANTITIES})")
    values2 = [float(v) for v in axis2.values()]
    tasks = [
        (base_descriptor, quantity, axis1.name, float(v1), axis2.name, values2)
        for v1 in axis1.values()
    ]
    if workers > 1:
        with Pool(processes=workers) as pool:
            rows = pool.map(_scan_row, tasks)
    else:
        rows = [_scan_row(t) for t in tasks]

    lines = ["param1,param2,value,verdict"]
    for v1, row in zip(axis1.values(), rows):
        for v2, (value, verdict) in zip(values2, row):
            lines.append(f"{float(v1)!r},{float(v2)!r},{value!r},{verdict}")
    payload = "\n".join(lines) + "\n"

    out_dir = os.path.dirname(os.path.abspath(out_path)) or "."
    try:
        fd, tmp_path = tempfile.mkstemp(prefix=".scan-", dir=out_dir)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp_path, out_path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise IOError(f"cannot write scan output to {out_path}: {exc}") from exc


def _load_descriptor(text: str) -> dict:
    """The state descriptor given inline as JSON or as a file path."""
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(f"invalid state JSON: {exc}") from exc
    else:
        try:
            with open(stripped) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise IOError(f"cannot read state file {stripped}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(f"invalid state JSON in {stripped}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidArgumentError("state descriptor must be a JSON object")
    return doc


def _default_workers() -> int:
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            value = int(env)
            if value >= 1:
                return value
        except ValueError:
            pass
        print(f"ignoring invalid {WORKERS_ENV}={env!r}", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cventangle",
        description="Continuous-variable entanglement detection and estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one quantity for one state")
    p_eval.add_argument("--state", required=True, help="state descriptor JSON or a file path")
    p_eval.add_argument("--quantity", required=True, choices=QUANTITIES)

    p_scan = sub.add_parser("scan", help="two-axis parameter grid scan to CSV")
    p_scan.add_argument("--state", required=True, help="base state descriptor JSON or file path")
    p_scan.add_argument("--quantity", required=True, choices=QUANTITIES)
    p_scan.add_argument(
        "--axes",
        action="append",
        required=True,
        metavar="name:min:max:steps",
        help="scan axis (give exactly twice; first axis is the outer/row axis)",
    )
    p_scan.add_argument("--out", required=True, help="output CSV path")
    p_scan.add_argument("--workers", type=int, default=None,
                        help=f"worker processes (default ${WORKERS_ENV} or 1)")

    p_verify = sub.add_parser("verify", help="run the Fock-oracle cross-check suite")
    p_verify.add_argument("--cutoff", type=int, default=40)
    p_verify.add_argument("--rmax", type=float, default=0.6, help="largest squeezing checked")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "eval":
            state = parse_state_descriptor(_load_descriptor(args.state))
            record = evaluate_quantity(state, args.quantity)
            print(json.dumps(record))
            return EXIT_OK
        if args.command == "scan":
            if len(args.axes) != 2:
                raise InvalidArgumentError("scan requires exactly two --axes arguments")
            base = _load_descriptor(args.state)
            axis1 = ScanAxis.parse(args.axes[0])
            axis2 = ScanAxis.parse(args.axes[1])
            workers = args.workers if args.workers else _default_workers()
            if workers < 1:
                raise InvalidArgumentError(f"workers must be >= 1, got {workers}")
            run_scan(base, args.quantity, axis1, axis2, args.out, workers=workers)
            print(json.dumps({"out": args.out, "rows": axis1.steps * axis2.steps}))
            return EXIT_OK
        if args.command == "verify":
            report = crosscheck.run_verification(args.cutoff, args.rmax)
            print(json.dumps(report, indent=2))
            if not report["all_pass"]:
                failing = [c["name"] for c in report["checks"] if not c["pass"]]
                print(f"verification failed: {', '.join(failing)}", file=sys.stderr)
                return EXIT_VERIFY
            return EXIT_OK
        raise InvalidArgumentError(f"unknown command {args.command!r}")
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (IOError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CVEntangleError as exc:
        print(f"numeric error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
