"""Entanglement witnesses built from continuum displacement-operator bases.

The two-parameter witness family is evaluated two ways: one 2x2 slice
determinant for any zero-mean two-mode Gaussian state, a standard form or a
covariance (:func:`cventangle.phase_space.slice_integral`), and the analytic
optimum over the witness parameters.  The SWAP observable, the same
determinant at D = -I, and the closed forms of the photon-added and
coherent-mixture examples live here as well.

Witness values are reported raw, never clamped; a value below ``-DETECTION_TOL``
certifies entanglement (:func:`detects_entanglement`, the one verdict rule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import phase_space
from .errors import (InvalidArgumentError, NumericDomainError, real_field, require_mixture,
                     require_nonnegative_nr)
from .realignment import _errstate, _nan_unless, detects_entanglement, reduced_norm
from .symplectic import CovarianceMatrix, require_physical

if TYPE_CHECKING:
    from .states import TwoModeStandardForm


@dataclass(frozen=True)
class WitnessParams:
    """Finite real witness parameters (mu1, mu2) with mu- * mu+ != 0."""

    mu1: float
    mu2: float

    def __post_init__(self):
        object.__setattr__(self, "mu1", real_field("mu1", self.mu1))
        object.__setattr__(self, "mu2", real_field("mu2", self.mu2))
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


def witness_expectation_gaussian(state: TwoModeStandardForm | CovarianceMatrix,
                                 w: WitnessParams) -> float:
    """Witness expectation of a zero-mean two-mode Gaussian state (a standard
    form or a covariance V), from its Wigner function W:

        1 - pi sqrt|mu- mu+| * integral W(mu2 conj(alpha) - mu1 alpha, alpha) d^2 alpha
          = 1 - sqrt|mu- mu+| / (2 sqrt(det S)),

    with S the slice matrix at D = diag(mu-, mu+) of
    :func:`cventangle.phase_space.slice_integral` (diag(K-, K+), standard
    form).  A covariance is refused unless physical.
    """
    pi_integral = phase_space.slice_integral(_physical(state), w.mu_minus, w.mu_plus)
    return 1.0 - math.sqrt(abs(w.mu_minus * w.mu_plus)) * pi_integral


def optimal_witness(s: TwoModeStandardForm) -> OptimalWitness:
    """Global minimum of the witness expectation over (mu1, mu2): 1 minus the
    realigned norm of the reduction ``s`` keeps from its physicality test
    (:func:`cventangle.realignment.reduced_norm`, which raises SingularLimitError
    where it diverges; no Gram spectrum is built), attained at |mu-+| =
    sqrt(a/b) with signs opposing c1, c2.  The ratio is taken as
    sqrt(a) / sqrt(b), finite and within 2 ulp of sqrt(a/b) for every
    a, b >= 1/4.  When c1 or c2 is zero both signs tie; the negative sign is
    returned for determinism."""
    value = 1.0 - reduced_norm(*s._gaps)
    ratio = math.sqrt(s.a) / math.sqrt(s.b)
    mu_minus = -ratio if s.c1 >= 0 else ratio
    mu_plus = -ratio if s.c2 >= 0 else ratio
    return OptimalWitness(value=value, mu_minus=mu_minus, mu_plus=mu_plus)


def _numpy_float(ufunc, x):
    """numpy's exp or cosh of x (math's differ in the last bit); of a Python
    float a Python float, inf where math's raise OverflowError, which is where
    numpy's overflow (no float's exp or cosh is within 2e-14 of the float range)."""
    if type(x) is not float:
        return ufunc(x)
    try:
        getattr(math, ufunc.__name__)(x)
    except OverflowError:
        return math.inf
    return float(ufunc(x))


def witness_photon_added_array(n, r):
    """Closed-form witness value at (mu1, mu2) = (0, 1) for the photon-added
    symmetric squeezed thermal state, on numbers or arrays:

        1 - e^{4r} n (1+n) / [(1+2n)^2 (cosh^2 r + n cosh 2r)].

    ``n`` and ``r`` are numbers or arrays that broadcast together.  The value
    is NaN wherever n or r is negative or not a number and wherever it is not
    finite, which includes every point where e^{4r} overflows (from r = 177.5).
    """
    with _errstate(n, r):
        # NaN where n or r is negative: a negative n can zero a float denominator
        n = _nan_unless((n >= 0.0) & (r >= 0.0), n)
        m = 1.0 + 2.0 * n
        ch = _numpy_float(np.cosh, r)
        value = 1.0 - (_numpy_float(np.exp, 4.0 * r) * n * (1.0 + n)
                       / (m * m * (ch * ch + n * _numpy_float(np.cosh, 2.0 * r))))
        return _nan_unless(abs(value) < math.inf, value)


def swap_photon_added_array(n, r):
    """Closed-form SWAP expectation of the same state, m = 1 + 2n, on numbers or arrays:

        (m^2 - 1) / (2 m^2 (m + 1/cosh 2r)),

    0 at n = 0 and never negative; 1/cosh 2r stays finite where m cosh 2r
    overflows.  ``n`` and ``r`` broadcast together; the value is NaN wherever
    n or r is negative or not a number, where cosh 2r itself overflows (from
    r = 355.3) and where the value is not finite.
    """
    with _errstate(n, r):
        n = _nan_unless((n >= 0.0) & (r >= 0.0), n)
        m = 1.0 + 2.0 * n
        cosh2r = _numpy_float(np.cosh, 2.0 * r)
        value = (m * m - 1.0) / (2.0 * m * m * (m + 1.0 / cosh2r))
        # cosh 2r >= 1 and the value lies in [0, 1/2): their product is finite
        # exactly where both are
        return _nan_unless(abs(cosh2r * value) < math.inf, value)


def _finite_value(closed_form, name: str, n: float, r: float) -> float:
    """One value of a photon-added closed form, on floats (realignment._sqrt):
    a negative n or r is invalid input, a NaN value a numeric-domain failure."""
    n, r = float(n), float(r)
    require_nonnegative_nr(n, r)
    value = closed_form(n, r)
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


def swap_expectation(state: TwoModeStandardForm | CovarianceMatrix) -> float:
    """Expectation of the mode-SWAP observable on a zero-mean two-mode
    Gaussian state (a standard form or a covariance V):

        pi * integral W(alpha, alpha) d^2 alpha = 1 / (2 sqrt(det(A + B - C - C^T))),

    the witness slice at D = -I; 1 / (2 sqrt((a + b - 2 c1)(a + b - 2 c2)))
    for a standard form.  Nonnegative on separable states; for product
    states it equals the state overlap.  A negative value certifies
    entanglement.  A covariance is refused unless physical.
    """
    return phase_space.slice_integral(_physical(state), -1.0, -1.0)


def _physical(state):
    """``state``, refused where it is a covariance that fails require_physical."""
    return require_physical(state) if isinstance(state, CovarianceMatrix) else state


def witness_coherent_mixture_closed(p: float, alpha1: complex, alpha2: complex) -> float:
    """Closed-form witness value at (mu1, mu2) = (0, 1) for the antisymmetrized
    coherent mixture (trace convention of :class:`cventangle.states.CoherentMixture`):

        p (1 - exp(-|alpha1 - alpha2|^2)).

    Never negative, so the negativity lower bound it gives is always 0.

    Raises:
        InvalidArgumentError: for p outside [0, 1] or a trace
            1 - p exp(-|alpha1 - alpha2|^2) of at most 1e-15
            (:func:`cventangle.errors.require_mixture`).
    """
    p, _alpha1, _alpha2, overlap = require_mixture(p, alpha1, alpha2)
    return p * (1.0 - overlap)


def swap_expectation_coherent_mixture(p: float, alpha1: complex, alpha2: complex) -> float:
    """Closed-form SWAP expectation of the antisymmetrized coherent mixture:

        p (exp(-|alpha1 - alpha2|^2) - 1) + 1 - p,

    negative exactly when p > 1 / (2 - exp(-|alpha1 - alpha2|^2)).

    Raises:
        InvalidArgumentError: as :func:`witness_coherent_mixture_closed`.
    """
    p, _alpha1, _alpha2, overlap = require_mixture(p, alpha1, alpha2)
    return p * (overlap - 1.0) + 1.0 - p
