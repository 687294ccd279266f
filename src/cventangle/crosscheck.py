"""Oracle-vs-analytic verification suite.

One table, :func:`_checks`, names for every check the truncated Fock states it
reads, the oracle quantities it needs from them and its closed form.
:func:`run_verification` builds each distinct state once per call, computes
only the quantities some check asks for, and releases the state before the
next build.  The report lists each check's worst deviation against its own
tolerance and the worst truncation deficit among the states it read.  A
failing check whose states lost more trace than its tolerance allows gets an
``error`` that names truncation.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds, fock, realignment, witness
from .errors import CVEntangleError, InvalidArgumentError, TruncationError
from .states import squeezed_thermal_params

ORACLE_TOL = 1e-3
MIXTURE_TOL = 1e-6

#: Oracle quantities a check may read; ``fock`` is looked up at call time.
_ORACLE = {
    "W01": lambda rho: fock.witness_fock(rho, "W01"),
    "SWAP": lambda rho: fock.witness_fock(rho, "SWAP"),
    "negativity": lambda rho: fock.negativity_fock(rho),
    "realignment": lambda rho: fock.realignment_trace_norm_fock(rho),
}


def _checks(r_max: float) -> list[tuple]:
    """The check table.  Each row: name, tolerance, the states read (a ``fock``
    constructor and its arguments before the cutoff), the oracle quantities
    needed from each, and ``deviation(q, *args)``, the distance of one state's
    oracle values ``q`` from the closed form."""
    rs = [0.0] if r_max <= 0 else [r_max / 3.0, 2.0 * r_max / 3.0, r_max]
    tmsv = [("tmsv_fock", (r,)) for r in rs]
    thermal = [("squeezed_thermal_fock", (0.2, r)) for r in rs]
    mixture = [("coherent_mixture_fock", (0.6, 1.0, -1.0))]
    added = [("photon_added_sts_fock", (0.5, min(r_max, 0.6) if r_max > 0 else 0.0))]
    w01 = witness.WitnessParams(0.0, 1.0)
    return [
        ("tmsv_realignment_trace_norm", ORACLE_TOL, tmsv, ("realignment",),
         lambda q, r: abs(q["realignment"] - math.exp(2 * r))),
        ("tmsv_witness_w01", ORACLE_TOL, tmsv, ("W01",),
         lambda q, r: abs(q["W01"] - (1 - math.exp(2 * r)))),
        ("tmsv_negativity", ORACLE_TOL, tmsv, ("negativity",),
         lambda q, r: abs(q["negativity"] - (math.exp(2 * r) - 1))),
        ("tmsv_cren_saturation", ORACLE_TOL, tmsv, ("W01", "negativity"),
         lambda q, r: abs(bounds.cren_lower_bound(q["W01"]) - q["negativity"])),
        ("tmsv_swap_identity", ORACLE_TOL, tmsv, ("SWAP",), lambda q, r: abs(q["SWAP"] - 1.0)),
        ("squeezed_thermal_witness_w01", ORACLE_TOL, thermal, ("W01",),
         lambda q, n, r: abs(q["W01"] - witness.witness_expectation_gaussian(
             squeezed_thermal_params(n, r), w01))),
        ("squeezed_thermal_realignment", ORACLE_TOL, thermal, ("realignment",),
         lambda q, n, r: abs(q["realignment"] - realignment.realignment_norm_two_mode(
             squeezed_thermal_params(n, r)))),
        ("coherent_mixture_swap", MIXTURE_TOL, mixture, ("SWAP",),
         lambda q, *args: abs(q["SWAP"] - witness.swap_expectation_coherent_mixture(*args))),
        ("photon_added_witness_w01", ORACLE_TOL, added, ("W01",),
         lambda q, n, r: abs(q["W01"] - witness.witness_photon_added_closed(n, r))),
        # lower-bound inequality: negativity >= -<W01> on every oracle state
        ("negativity_bounds_witness", 1e-6, [tmsv[-1], thermal[-1], *mixture, *added],
         ("W01", "negativity"), lambda q, *_: max(-q["W01"] - q["negativity"], 0.0)),
    ]


def _oracle_values(state: tuple, cutoff: int, needs) -> tuple[dict, float | None]:
    """Build one state and compute the quantities in ``needs``, keeping the
    error in place of every value it prevents, and the trace deficit (None if
    the build failed).  The state is released on return."""
    builder, args = state
    try:
        rho = getattr(fock, builder)(*args, cutoff)
    except CVEntangleError as exc:
        return dict.fromkeys(needs, exc), None
    values = {}
    for quantity in needs:
        try:
            values[quantity] = _ORACLE[quantity](rho)
        except CVEntangleError as exc:
            values[quantity] = exc
    return values, rho.trace_deficit


def _check_record(oracle: dict, name, tolerance, states, needs, deviation) -> dict:
    record = {"name": name, "tolerance": tolerance}
    try:
        worst = []
        for state in states:
            values, _deficit = oracle[state]
            errors = [values[q] for q in needs if isinstance(values[q], CVEntangleError)]
            if errors:
                raise errors[0]
            worst.append(deviation(values, *state[1]))
        value = float(np.max(worst))  # a NaN deviation propagates and fails the check
        record.update({"pass": value <= tolerance, "max_abs_deviation": value})
    except CVEntangleError as exc:
        record.update({"pass": False, "error": f"{type(exc).__name__}: {exc}"})
    deficits = [oracle[s][1] for s in states if oracle[s][1] is not None]
    record["traceDeficit"] = deficit = max(deficits, default=None)
    if not record["pass"] and "error" not in record and deficit is not None and deficit > tolerance:
        record["error"] = (f"TruncationError: the oracle states lose {deficit:.4g} of their trace, "
                           f"more than the tolerance {tolerance:g}; raise the cutoff")
    return record


def failed_by_truncation(record: dict) -> bool:
    """True for a failing check record whose error is truncation: a state
    that could not be built, or a trace deficit beyond the check's tolerance."""
    return not record["pass"] and record.get("error", "").startswith(TruncationError.__name__)


def run_verification(cutoff: int, r_max: float) -> dict:
    """Run every oracle cross-check at the given truncation.

    ``cutoff`` must be an integer in [4, 64] and ``r_max`` must be finite;
    ``r_max <= 0`` checks r = 0 only.  Returns a JSON-ready report;
    ``all_pass`` is true iff every check stayed within its tolerance.
    """
    cutoff = fock._require_cutoff(cutoff)
    if cutoff > 64:
        raise InvalidArgumentError(f"cutoff must be at most 64, got {cutoff}")
    if not math.isfinite(r_max):
        raise InvalidArgumentError(f"rmax must be finite, got {r_max}")
    checks = _checks(r_max)
    needs: dict[tuple, dict] = {}
    for _name, _tol, states, quantities, _dev in checks:
        for state in states:
            needs.setdefault(state, {}).update(dict.fromkeys(quantities))
    oracle = {state: _oracle_values(state, cutoff, quantities)
              for state, quantities in needs.items()}
    records = [_check_record(oracle, *check) for check in checks]
    return {
        "cutoff": cutoff,
        "r_max": r_max,
        "checks": records,
        "all_pass": all(rec["pass"] for rec in records),
    }
