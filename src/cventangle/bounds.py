"""Lower bounds on entanglement measures from witness expectation values.

The witness at (mu1, mu2) = (0, 1) bounds the convex-roof extended negativity
from below; the SWAP expectation bounds concurrence, entanglement of formation
(in bits) and tangle.  Bounds are clamped at zero - a negative lower bound is
vacuous - while the raw inputs are preserved in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

_SWAP_RANGE_TOL = 1e-9


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2(1-x) on [0, 1], with 0 log 0 = 0."""
    x = float(x)
    if not (0.0 <= x <= 1.0):
        raise InvalidArgumentError(f"binary entropy argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def cren_lower_bound(witness_value_01):
    """Negativity (convex-roof extension) >= -witness value at (0, 1), clamped
    at 0.  Accepts an array of witness values and returns one of bounds."""
    return np.maximum(0.0, np.negative(witness_value_01)) + 0.0  # + 0.0 turns -0.0 into 0.0


def concurrence_lower_bound(swap_value: float) -> float:
    """Concurrence >= -SWAP expectation, clamped at 0."""
    return max(0.0, -float(swap_value))


def eof_lower_bound(swap_value: float) -> float:
    """Entanglement of formation, in bits: H2((1 + sqrt(1 - v^2))/2) for
    v = SWAP expectation < 0, else 0.  Monotone increasing in |v| on [-1, 0]."""
    v = float(swap_value)
    if v >= 0.0:
        return 0.0
    if v < -1.0 - _SWAP_RANGE_TOL:
        raise InvalidArgumentError(f"SWAP expectation {v} below the physical range [-1, 1]")
    v = max(v, -1.0)
    return binary_entropy((1.0 + math.sqrt(1.0 - v * v)) / 2.0)


def tangle_lower_bound(swap_value: float) -> float:
    """Tangle >= (SWAP expectation)^2 when the expectation is negative, else 0."""
    v = float(swap_value)
    return v * v if v < 0.0 else 0.0


@dataclass(frozen=True)
class BoundReport:
    """All measure bounds derived from one pair of witness inputs."""

    cren_lower: float
    concurrence_lower: float
    eof_lower: float
    tangle_lower: float
    witness_value_01: float
    swap_value: float


def bound_report(witness_value_01: float, swap_value: float) -> BoundReport:
    """Assemble every bound from the two measured expectation values."""
    return BoundReport(
        cren_lower=float(cren_lower_bound(witness_value_01)),
        concurrence_lower=concurrence_lower_bound(swap_value),
        eof_lower=eof_lower_bound(swap_value),
        tangle_lower=tangle_lower_bound(swap_value),
        witness_value_01=float(witness_value_01),
        swap_value=float(swap_value),
    )
