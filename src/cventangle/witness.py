"""Entanglement witnesses built from continuum displacement-operator bases.

The two-parameter witness family is evaluated three ways: a closed form for
standard-form Gaussian states, an exact Gaussian-moment integral over a slice
of the Wigner function (any two-mode state with a :class:`WignerSpec`), and the
analytic optimum over the witness parameters.  The SWAP observable and the
closed forms of the photon-added and coherent-mixture examples live here as
well.

Witness values are reported raw, never clamped; a value below
``-DETECTION_TOL`` certifies entanglement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import phase_space
from .errors import (
    InvalidArgumentError,
    NumericDomainError,
    SingularLimitError,
    require_nonnegative_nr,
)

if TYPE_CHECKING:
    from .states import TwoModeStandardForm, WignerSpec

#: Witness and SWAP values below -DETECTION_TOL, and realigned norms above
#: 1 + DETECTION_TOL, count as detected entanglement.
DETECTION_TOL = 1e-10


@dataclass(frozen=True)
class WitnessParams:
    """Real witness parameters (mu1, mu2) with mu- * mu+ != 0."""

    mu1: float
    mu2: float

    def __post_init__(self):
        object.__setattr__(self, "mu1", float(self.mu1))
        object.__setattr__(self, "mu2", float(self.mu2))
        if abs(self.mu_minus * self.mu_plus) <= 1e-12:
            raise InvalidArgumentError(
                f"need |mu- * mu+| > 1e-12, got mu1={self.mu1}, mu2={self.mu2}"
            )

    @property
    def mu_minus(self) -> float:
        return self.mu1 - self.mu2

    @property
    def mu_plus(self) -> float:
        return self.mu1 + self.mu2


@dataclass(frozen=True)
class OptimalWitness:
    """Minimal witness expectation and the minimizing (mu-, mu+)."""

    value: float
    mu_minus: float
    mu_plus: float

    @property
    def mu1(self) -> float:
        return (self.mu_minus + self.mu_plus) / 2.0

    @property
    def mu2(self) -> float:
        return (self.mu_plus - self.mu_minus) / 2.0

    @property
    def params(self) -> WitnessParams:
        return WitnessParams(mu1=self.mu1, mu2=self.mu2)


def detects_entanglement(value: float) -> bool:
    """Verdict convention shared by the witness and SWAP expectations."""
    return value < -DETECTION_TOL


def witness_expectation_gaussian(s: TwoModeStandardForm, w: WitnessParams) -> float:
    """Closed-form witness expectation for a standard-form Gaussian state:

        1 - sqrt|mu- mu+| / (2 sqrt(K- K+)),

    with K- = a + b mu-^2 + 2 c1 mu- and K+ = a + b mu+^2 + 2 c2 mu+.
    """
    km = s.a + s.b * w.mu_minus**2 + 2.0 * s.c1 * w.mu_minus
    kp = s.a + s.b * w.mu_plus**2 + 2.0 * s.c2 * w.mu_plus
    if km <= 0.0 or kp <= 0.0:
        raise NumericDomainError(
            f"inner factors must be positive, got K-={km}, K+={kp}; input is not "
            "a physical state / valid parameter combination"
        )
    return 1.0 - math.sqrt(abs(w.mu_minus * w.mu_plus)) / (2.0 * math.sqrt(km * kp))


def witness_slice_matrix(w: WitnessParams) -> np.ndarray:
    """Slice xi = T u realizing the witness integral: the first mode is pinned
    to (-mu- x, -mu+ p) while the second runs over alpha = x + i p."""
    return np.array(
        [
            [-w.mu_minus, 0.0],
            [0.0, -w.mu_plus],
            [1.0, 0.0],
            [0.0, 1.0],
        ]
    )


def witness_expectation_wigner(wspec: WignerSpec, w: WitnessParams) -> float:
    """Witness expectation from the Wigner function:

        1 - pi sqrt|mu- mu+| * integral W(mu2 conj(alpha) - mu1 alpha, alpha) d^2 alpha,

    with the slice integral evaluated exactly by Gaussian moment algebra.
    """
    if wspec.modes != 2:
        raise InvalidArgumentError("witness expectation requires a two-mode Wigner function")
    integral = phase_space.slice_integral(wspec, witness_slice_matrix(w))
    return 1.0 - math.pi * math.sqrt(abs(w.mu_minus * w.mu_plus)) * integral


def optimal_witness(s: TwoModeStandardForm) -> OptimalWitness:
    """Global minimum of the witness expectation over (mu1, mu2):

        1 - 1 / (4 sqrt((sqrt(ab) - |c1|)(sqrt(ab) - |c2|))),

    attained at |mu-+| = sqrt(a/b) with signs opposing c1, c2.  When c1 or c2
    is zero both signs tie; the negative sign is returned for determinism.
    """
    sab = math.sqrt(s.a * s.b)
    if sab <= abs(s.c1) or sab <= abs(s.c2):
        raise SingularLimitError(
            f"optimal witness is singular at sqrt(ab) <= |c_i| "
            f"(sqrt(ab)={sab}, c1={s.c1}, c2={s.c2})"
        )
    ratio = math.sqrt(s.a / s.b)
    mu_minus = -ratio if s.c1 >= 0 else ratio
    mu_plus = -ratio if s.c2 >= 0 else ratio
    value = 1.0 - 1.0 / (4.0 * math.sqrt((sab - abs(s.c1)) * (sab - abs(s.c2))))
    return OptimalWitness(value=value, mu_minus=mu_minus, mu_plus=mu_plus)


def witness_photon_added_array(n, r):
    """Closed-form witness value at (mu1, mu2) = (0, 1) for the photon-added
    symmetric squeezed thermal state, on arrays:

        1 - e^{4r} n (1+n) / [(1+2n)^2 (cosh^2 r + n cosh 2r)].

    ``n`` and ``r`` are numbers or arrays that broadcast together.  The value
    is NaN wherever n or r is negative or not a number and wherever it is not
    finite, which includes every point where e^{4r} overflows (from r = 177.5).
    """
    with np.errstate(all="ignore"):
        m = 1.0 + 2.0 * n
        ch = np.cosh(r)
        value = 1.0 - np.exp(4.0 * r) * n * (1.0 + n) / (m * m * (ch * ch + n * np.cosh(2.0 * r)))
        return np.where((n >= 0.0) & (r >= 0.0) & np.isfinite(value), value, np.nan)[()]


def swap_photon_added_array(n, r):
    """Closed-form SWAP expectation of the same state, on arrays, with m = 1 + 2n:

        (m^2 - 1) / (2 m^2 (m + 1/cosh 2r)),

    0 at n = 0 and never negative; 1/cosh 2r stays finite where m cosh 2r
    overflows.  ``n`` and ``r`` broadcast together; the value is NaN wherever
    n or r is negative or not a number, where cosh 2r itself overflows (from
    r = 355.3) and where the value is not finite.
    """
    with np.errstate(all="ignore"):
        m = 1.0 + 2.0 * n
        cosh2r = np.cosh(2.0 * r)
        value = (m * m - 1.0) / (2.0 * m * m * (m + 1.0 / cosh2r))
        # cosh 2r >= 1 and the value lies in [0, 1/2): their product is finite
        # exactly where both are
        ok = (n >= 0.0) & (r >= 0.0) & np.isfinite(cosh2r * value)
        return np.where(ok, value, np.nan)[()]


def _finite_value(closed_form, name: str, n: float, r: float) -> float:
    """One value of a photon-added closed form: a negative n or r is invalid
    input, a NaN value is a numeric-domain failure."""
    n, r = float(n), float(r)
    require_nonnegative_nr(n, r)
    value = float(closed_form(n, r))
    if math.isnan(value):
        raise NumericDomainError(f"{name} leaves the float range at n={n}, r={r}")
    return value


def witness_photon_added_closed(n: float, r: float) -> float:
    """:func:`witness_photon_added_array` at one point.

    Raises:
        InvalidArgumentError: for a negative n or r.
        NumericDomainError: where the value overflows (r >= 177.5).
    """
    return _finite_value(witness_photon_added_array, "photon-added witness", n, r)


def swap_photon_added_closed(n: float, r: float) -> float:
    """:func:`swap_photon_added_array` at one point.

    Raises:
        InvalidArgumentError: for a negative n or r.
        NumericDomainError: where cosh 2r overflows (r >= 355.3).
    """
    return _finite_value(swap_photon_added_array, "photon-added SWAP", n, r)


_SWAP_SLICE = np.array(
    [
        [1.0, 0.0],
        [0.0, 1.0],
        [1.0, 0.0],
        [0.0, 1.0],
    ]
)


def swap_expectation(wspec: WignerSpec) -> float:
    """Expectation of the mode-SWAP observable: pi * integral W(alpha, alpha) d^2 alpha.

    Nonnegative on separable states; for product states it equals the state
    overlap.  A negative value certifies entanglement.
    """
    if wspec.modes != 2:
        raise InvalidArgumentError("SWAP expectation requires a two-mode Wigner function")
    return math.pi * phase_space.slice_integral(wspec, _SWAP_SLICE)


def _mixture_overlap(p: float, alpha1: complex, alpha2: complex) -> float:
    """exp(-|alpha1 - alpha2|^2) of the coherent mixture, after checking p."""
    if not (0.0 <= p <= 1.0):
        raise InvalidArgumentError(f"mixing probability must lie in [0, 1], got {p}")
    return math.exp(-abs(complex(alpha1) - complex(alpha2)) ** 2)


def witness_coherent_mixture_closed(p: float, alpha1: complex, alpha2: complex) -> float:
    """Closed-form witness value at (mu1, mu2) = (0, 1) for the antisymmetrized
    coherent mixture (trace convention of :class:`cventangle.states.CoherentMixture`):

        p (1 - exp(-|alpha1 - alpha2|^2)).

    Never negative, so the negativity lower bound it gives is always 0.
    """
    p = float(p)
    return p * (1.0 - _mixture_overlap(p, alpha1, alpha2))


def swap_expectation_coherent_mixture(p: float, alpha1: complex, alpha2: complex) -> float:
    """Closed-form SWAP expectation of the antisymmetrized coherent mixture:

        p (exp(-|alpha1 - alpha2|^2) - 1) + 1 - p,

    negative exactly when p > 1 / (2 - exp(-|alpha1 - alpha2|^2)).
    """
    p = float(p)
    return p * (_mixture_overlap(p, alpha1, alpha2) - 1.0) + 1.0 - p
