"""Command-line front end: evaluate single states, scan parameter grids,
run the oracle cross-check suite.

Exit codes: 0 success, 2 invalid input, 3 numeric-domain failure (also a
``verify`` run whose every failing check failed by Fock truncation), 4 I/O
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
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import bounds as bounds_mod
from . import crosscheck, witness
from .errors import CVEntangleError, InvalidArgumentError, NumericDomainError
from .states import (decode_fields, family_named, family_of, parse_state_descriptor,
                     state_descriptor)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERIC = 3
EXIT_IO = 4
EXIT_VERIFY = 5


def _value_fields(value: float) -> dict:
    return {"value": value, "entangled": witness.detects_entanglement(value)}


def _spectrum_fields(spectrum) -> dict:
    """``nus`` and ``a0`` of a Gram spectrum, or none."""
    return {} if spectrum is None else {"nus": list(spectrum.nus), "a0": spectrum.a0}


def _realignment_fields(result) -> dict:
    """The one refusal of a missing Gram spectrum: a0, the purity, can only underflow."""
    if result.spectrum is None:
        raise NumericDomainError("Gram prefactor a0 underflows below the float range")
    return {"norm": result.norm, **_spectrum_fields(result.spectrum), "verdict": result.verdict}


def _classify_fields(result) -> dict:
    """The closed-form verdict, plus its Gram spectrum where
    :func:`cventangle.realignment.classify_two_two` attaches one (``eval``
    only; a scan cell reads the grid, which has none)."""
    return {"verdict": result.verdict, "norm": result.norm, "threshold": result.threshold,
            **_spectrum_fields(result.spectrum)}


def _grid_verdicts(entangled, invalid) -> np.ndarray:
    return np.where(invalid, "invalid", np.where(entangled, "entangled", "undetected"))


def _value_grid(values) -> tuple:
    return values, _grid_verdicts(witness.detects_entanglement(values), np.isnan(values))


def _bounds_grid(inputs) -> tuple:
    w01, swap = inputs  # the witness01 and swap grids
    invalid = np.isnan(w01) | np.isnan(swap)
    detects = witness.detects_entanglement
    cren = np.where(invalid, np.nan, bounds_mod.cren_lower_bound(w01))
    return cren, _grid_verdicts(detects(w01) | detects(swap), invalid)


class _Quantity(NamedTuple):
    record: Callable
    grid: Optional[Callable] = None


#: What each quantity reports, from the value its family evaluator returns:
#: ``record(value)`` gives the ``eval`` JSON fields in output order, from
#: which :func:`_cell` reads a scan cell.  ``grid(value)`` gives the CSV
#: ``(values, verdicts)`` arrays from the value of a grid evaluator
#: (:attr:`cventangle.states.Family.grid`), ``invalid`` where that value marks
#: a refused point.  Nothing else in the package knows the record format.
_QUANTITIES = {
    "optimal_witness": _Quantity(
        lambda opt: {
            "mu1": opt.mu1,
            "mu2": opt.mu2,
            "muMinus": opt.mu_minus,
            "muPlus": opt.mu_plus,
            **_value_fields(opt.value),
        },
    ),
    "witness01": _Quantity(lambda value: {"mu1": 0.0, "mu2": 1.0, **_value_fields(value)},
                           _value_grid),
    "swap": _Quantity(_value_fields, _value_grid),
    "realignment_norm": _Quantity(_realignment_fields),
    "classify": _Quantity(_classify_fields, lambda result: (result[1], result[0])),
    "bounds": _Quantity(
        lambda report: {
            "crenLower": report.cren_lower,
            "concurrenceLower": report.concurrence_lower,
            "eofLower": report.eof_lower,
            "tangleLower": report.tangle_lower,
            "inputs": {"witnessValue01": report.witness_value_01, "swapValue": report.swap_value},
            "entangled": (witness.detects_entanglement(report.witness_value_01)
                          or witness.detects_entanglement(report.swap_value)),
        },
        _bounds_grid,
    ),
}

QUANTITIES = tuple(_QUANTITIES)


def _quantity(quantity: str) -> _Quantity:
    if quantity not in _QUANTITIES:
        raise InvalidArgumentError(f"unknown quantity {quantity!r} (choose from {QUANTITIES})")
    return _QUANTITIES[quantity]


def _cell(record: dict) -> tuple:
    """The scan CSV ``(value, verdict)`` read from an ``eval`` record: its
    ``value``, ``norm`` (None as NaN) or ``crenLower``, and its ``verdict``
    or, where it has none, its ``entangled`` flag."""
    value = record.get("value", record.get("norm", record.get("crenLower")))
    verdict = record.get("verdict") or ("entangled" if record["entangled"] else "undetected")
    return (math.nan if value is None else value), verdict


def _evaluator(family, quantity: str):
    """The family's evaluator for ``quantity``; ``bounds`` is derived wherever
    the family evaluates both ``witness01`` and ``swap``."""
    if quantity == "bounds" and {"witness01", "swap"} <= family.quantities.keys():
        w01, swap = family.quantities["witness01"], family.quantities["swap"]
        return lambda state: bounds_mod.bound_report(w01(state), swap(state))
    if quantity not in family.quantities:
        raise InvalidArgumentError(f"{quantity} is not available for family {family.name}")
    return family.quantities[quantity]


def _evaluate(state, quantity: str):
    """The value the family evaluator of ``quantity`` returns for ``state``.

    Overflow and singular linear algebra inside an engine are reported as
    :class:`NumericDomainError` (exit 3, or an ``invalid`` scan cell).
    """
    evaluate = _evaluator(family_of(state), quantity)
    try:
        return evaluate(state)
    except (OverflowError, np.linalg.LinAlgError) as exc:
        raise NumericDomainError(f"{quantity} left the floating-point domain: {exc}") from exc


def evaluate_quantity(state, quantity: str) -> dict:
    """The ``eval`` JSON record of one state/quantity pair."""
    record = _quantity(quantity).record
    fields = record(_evaluate(state, quantity))
    return {"state": state_descriptor(state), "quantity": quantity, **fields}


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
        if not math.isfinite(hi - lo):  # also when the width leaves the float range
            raise InvalidArgumentError(f"axis {name!r} range must be finite")
        return cls(name=name, lo=lo, hi=hi, steps=steps)

    def values(self) -> np.ndarray:
        """The axis points; a step count numpy refuses to allocate (with a
        MemoryError, or ValueError or IndexError from 2**63 up) is invalid."""
        try:
            return np.linspace(self.lo, self.hi, self.steps)
        except (MemoryError, ValueError, IndexError) as exc:
            raise InvalidArgumentError(
                f"axis {self.name!r} has more steps than fit in memory: {self.steps}") from exc


def _csv_payload(values1: list, values2: list, rows) -> str:
    """The scan CSV from the axis values and the ``(values, verdicts)`` pair
    of each row: header param1,param2,value,verdict, then one line per cell,
    row-major with axis1 outermost."""
    keys2 = [repr(v2) for v2 in values2]
    lines = ["param1,param2,value,verdict"]
    for v1, (values, verdicts) in zip(values1, rows):
        key1 = repr(v1)
        lines.extend(f"{key1},{key2},{value!r},{verdict}"
                     for key2, value, verdict in zip(keys2, values, verdicts))
    return "\n".join(lines) + "\n"


def run_scan(
    base_descriptor: dict,
    quantity: str,
    axis1: ScanAxis,
    axis2: ScanAxis,
    out_path: str,
    workers: int = 1,
) -> None:
    """Write the grid scan CSV (header param1,param2,value,verdict; row-major
    with axis1 outermost).  Output is written atomically.

    A quantity the family does not evaluate is refused before any cell is
    filled, as ``eval`` refuses it, and so is a grid of more float64 cells
    than numpy can allocate.  The base fields that no axis sets are
    decoded once; a base descriptor that a cell's descriptor would fail to
    decode makes every cell invalid.
    A quantity with a grid evaluator in the family table is evaluated on the
    whole grid at once; any other is evaluated cell by cell, on states built
    from the decoded fields and the cell's axis values, and each cell is read
    from the state's ``eval`` record.  Every scan runs in this process:
    ``workers`` is accepted and ignored.
    """
    family = family_named(base_descriptor.get("family"))
    if not family.axes:
        raise InvalidArgumentError(f"family {family.name!r} does not support scanning")
    for axis in (axis1, axis2):
        if axis.name not in family.axes:
            raise InvalidArgumentError(
                f"axis {axis.name!r} is not a parameter of family {family.name!r} "
                f"(choose from {sorted(family.axes)})"
            )
    entry = _quantity(quantity)
    if quantity not in family.grid:
        _evaluator(family, quantity)  # refuses a quantity the family lacks, as eval does
    values1, values2 = axis1.values().tolist(), axis2.values().tolist()
    try:
        np.empty((axis1.steps, axis2.steps))
    except (MemoryError, ValueError) as exc:
        raise InvalidArgumentError(f"grid of {axis1.steps} x {axis2.steps} cells does not fit "
                                   f"in memory") from exc
    try:
        fields = decode_fields(family, base_descriptor, skip={axis1.name, axis2.name})
    except InvalidArgumentError:
        rows = [([math.nan] * len(values2), ["invalid"] * len(values2))] * len(values1)
    else:
        if quantity in family.grid:
            axes = {axis1.name: axis1.values()[:, None]}
            axes[axis2.name] = axis2.values()[None, :]  # a repeated axis keeps its second value
            values, verdicts = entry.grid(family.grid[quantity](**fields, **axes))
            shape = (axis1.steps, axis2.steps)
            rows = zip(np.broadcast_to(values, shape).tolist(),
                       np.broadcast_to(verdicts, shape).tolist())
        else:
            build = family.build or family.cls
            rows = []
            for v1 in values1:
                cells = []
                for v2 in values2:
                    try:
                        state = build(**{**fields, axis1.name: v1, axis2.name: v2})
                        cells.append(_cell(entry.record(_evaluate(state, quantity))))
                    except CVEntangleError:
                        cells.append((math.nan, "invalid"))
                rows.append(zip(*cells))
    payload = _csv_payload(values1, values2, rows)

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
    """The state descriptor given inline as JSON (text that starts with
    ``{``, ``[`` or ``"`` once stripped) or as a file path.  Malformed JSON,
    bytes that are not UTF-8, an integer past the digit limit (each a
    ValueError), nesting too deep for the parser and JSON other than an
    object are invalid input."""
    stripped = text.strip()
    if stripped.startswith(("{", "[", '"')):
        try:
            doc = json.loads(stripped)
        except (ValueError, RecursionError) as exc:
            raise InvalidArgumentError(f"invalid state JSON: {exc}") from exc
    else:
        try:
            with open(stripped) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise IOError(f"cannot read state file {stripped}: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            raise InvalidArgumentError(f"invalid state JSON in {stripped}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidArgumentError("state descriptor must be a JSON object")
    return doc


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
    p_scan.add_argument("--workers", type=int, default=1,
                        help="accepted and ignored: every scan runs in one process")

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
            if args.workers < 0:
                raise InvalidArgumentError(f"workers must be >= 0, got {args.workers}")
            run_scan(base, args.quantity, axis1, axis2, args.out)
            print(json.dumps({"out": args.out, "rows": axis1.steps * axis2.steps}))
            return EXIT_OK
        if args.command == "verify":
            report = crosscheck.run_verification(args.cutoff, args.rmax)
            print(json.dumps(report, indent=2))
            if not report["all_pass"]:
                failing = [c for c in report["checks"] if not c["pass"]]
                names = ", ".join(c["name"] for c in failing)
                if all(crosscheck.failed_by_truncation(c) for c in failing):
                    print(f"verification failed by truncation only: {names}; raise --cutoff",
                          file=sys.stderr)
                    return EXIT_NUMERIC
                print(f"verification failed: {names}", file=sys.stderr)
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
