"""Realignment criterion for n+n mode Gaussian states via symplectic spectra.

The trace norm of the realigned density operator is obtained without any
numeric integration: the Gram operator R(rho) R(rho)† of a Gaussian state is
itself Gaussian, its covariance matrix and scalar prefactor follow from V by
closed block-matrix algebra, and the norm is a product over the symplectic
eigenvalues.  A norm above 1 certifies entanglement (including bound
entanglement of PPT states).  The 2+2-mode family whose bound entanglement
the criterion detects is defined here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import (
    InvalidArgumentError,
    NumericDomainError,
    SingularLimitError,
    SpectralDomainError,
    require_vacuum_bound,
)
from .symplectic import (
    CovarianceMatrix,
    WilliamsonSpectrum,
    is_physical,
    is_ppt,
    symplectic_eigenvalues,
)
from .witness import DETECTION_TOL

if TYPE_CHECKING:
    from .states import TwoModeStandardForm

#: Width of the clamp window for 2 nu - 1/2 slightly below zero.
SPECTRUM_CLAMP_TOL = 1e-9


@dataclass(frozen=True)
class RealignmentResult:
    """Realigned trace norm, the spectrum behind it, and the verdict."""

    norm: float
    spectrum: WilliamsonSpectrum
    verdict: str


def realigned_gram_covariance(V: CovarianceMatrix) -> tuple[CovarianceMatrix, float]:
    """Covariance matrix and prefactor a0 of the Gram operator R(rho) R(rho)†.

    For a zero-mean Gaussian state of an n+n mode split the characteristic
    function of the Gram operator is a0 exp(-Lambda V_gram Lambda^T / 2); the
    4n x 4n matrix V_gram and a0 come out of the defining Gaussian integral in
    closed form:

        V_gram = (L^T V L + S^T V^{-1} S) / 2,    a0 = 2^{-2m} det(V)^{-1/2},

    with sparse coupling matrices L, S fixed by the split (m = 2n modes).
    a0 equals the purity of the state.

    Raises:
        InvalidArgumentError: for an odd mode split or unphysical input.
    """
    m = V.modes
    if m % 2:
        raise InvalidArgumentError(f"realignment requires an even n+n mode split, got {m} modes")
    if not is_physical(V):
        raise InvalidArgumentError("realignment requires a physical covariance matrix")
    n = m // 2
    dim = 2 * m
    L = np.zeros((dim, dim))
    S = np.zeros((dim, dim))
    for j in range(n):
        xj, pj = 2 * j, 2 * j + 1
        bj, aj = 2 * j, 2 * j + 1
        bnj, anj = 2 * (n + j), 2 * (n + j) + 1
        L[xj, bj] = 1.0
        L[xj, bnj] = 1.0
        L[pj, aj] = -1.0
        L[pj, anj] = 1.0
        S[xj, aj] = 0.25
        S[xj, anj] = 0.25
        S[pj, bj] = 0.25
        S[pj, bnj] = -0.25
    gram = 0.5 * (L.T @ V.matrix @ L + S.T @ np.linalg.solve(V.matrix, S))
    sign, logdet = np.linalg.slogdet(V.matrix)
    if sign <= 0:
        raise InvalidArgumentError("covariance matrix must be positive definite")
    a0 = math.exp(-2.0 * m * math.log(2.0) - 0.5 * logdet)
    return CovarianceMatrix(gram), a0


def norm_from_spectrum(spectrum: WilliamsonSpectrum) -> float:
    """Realigned trace norm from the Gram spectrum:

        sqrt(a0) * prod_i (sqrt(2 nu_i + 1/2) + sqrt(2 nu_i - 1/2)).

    Values of 2 nu_i - 1/2 in (-SPECTRUM_CLAMP_TOL, 0) are clamped to zero;
    anything lower is a numerically invalid Gram state.
    """
    total = math.sqrt(spectrum.a0)
    for nu in spectrum.nus:
        excess = 2.0 * nu - 0.5
        if excess < -SPECTRUM_CLAMP_TOL:
            raise SpectralDomainError(
                f"Gram symplectic eigenvalue {nu} below 1/4 beyond tolerance"
            )
        total *= math.sqrt(2.0 * nu + 0.5) + math.sqrt(max(excess, 0.0))
    return total


def realignment_norm(V: CovarianceMatrix) -> RealignmentResult:
    """Realigned trace norm of an n+n mode Gaussian state via the generic
    Gram-covariance pipeline; on separable inputs the norm is <= 1 + 1e-10."""
    gram, a0 = realigned_gram_covariance(V)
    spectrum = symplectic_eigenvalues(gram)
    spectrum = WilliamsonSpectrum(nus=spectrum.nus, a0=a0)
    norm = norm_from_spectrum(spectrum)
    verdict = "entangled" if norm > 1.0 + DETECTION_TOL else "undetected"
    return RealignmentResult(norm=norm, spectrum=spectrum, verdict=verdict)


def realignment_norm_two_mode(s: TwoModeStandardForm) -> float:
    """Closed form for standard-form two-mode Gaussian states:

        1 / (4 sqrt((sqrt(ab) - |c1|)(sqrt(ab) - |c2|))),

    equal to 1 minus the optimal witness expectation.
    """
    sab = math.sqrt(s.a * s.b)
    if sab <= abs(s.c1) or sab <= abs(s.c2):
        raise SingularLimitError(
            f"realigned norm diverges at sqrt(ab) <= |c_i| (sqrt(ab)={sab}, "
            f"c1={s.c1}, c2={s.c2})"
        )
    return 1.0 / (4.0 * math.sqrt((sab - abs(s.c1)) * (sab - abs(s.c2))))


def realignment_norm_two_two(a: float, b: float, c: float) -> float:
    """Closed form for the 2+2-mode family: 1 / (16 (ab + c^2 - 2 sqrt(ab) |c|))."""
    a, b, c = float(a), float(b), float(c)
    denom = 16.0 * (a * b + c * c - 2.0 * math.sqrt(a * b) * abs(c))
    if denom <= 0.0:
        raise SingularLimitError(f"realigned norm diverges at |c| = sqrt(ab) (a={a}, b={b}, c={c})")
    return 1.0 / denom


_TWO_TWO_R = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ]
)


def two_two_family(a: float, b: float, c: float) -> CovarianceMatrix:
    """8x8 covariance of the 2+2-mode family [[a I4, c R], [c R^T, b I4]].

    Physicality is not enforced here: the matrix is a valid state iff
    |c| <= :func:`family_threshold`; use :func:`cventangle.symplectic.is_physical`
    or :func:`classify_two_two` to report it.
    """
    a, b, c = float(a), float(b), float(c)
    require_vacuum_bound(a=a, b=b)
    V = np.zeros((8, 8))
    V[:4, :4] = a * np.eye(4)
    V[4:, 4:] = b * np.eye(4)
    V[:4, 4:] = c * _TWO_TWO_R
    V[4:, :4] = c * _TWO_TWO_R.T
    return CovarianceMatrix(V)


def family_threshold(a: float, b: float) -> float:
    """Largest |c| for which the 2+2 family is a valid state:
    sqrt(ab - sqrt(a^2 + b^2 - 1/16)/4)."""
    a, b = float(a), float(b)
    require_vacuum_bound(a=a, b=b)
    radicand = a * b - math.sqrt(a * a + b * b - 1.0 / 16.0) / 4.0
    if math.isnan(radicand):  # inf - inf: a or b beyond the float range
        raise NumericDomainError(f"family threshold overflows at a={a}, b={b}")
    if radicand < 0.0:
        if radicand < -1e-12:
            raise InvalidArgumentError(
                f"no valid correlation exists for a={a}, b={b} (negative radicand)"
            )
        radicand = 0.0
    return math.sqrt(radicand)


@dataclass(frozen=True)
class TwoTwoClassification:
    """Verdict for one point of the 2+2 family, with the quantities behind it."""

    verdict: str
    norm: Optional[float]
    threshold: float


def classify_two_two(a: float, b: float, c: float) -> TwoTwoClassification:
    """Classify a point of the 2+2 family as unphysical, undetected, or
    bound entangled.

    The family is PPT everywhere in its physical region, so a realigned norm
    above 1 certifies bound entanglement; the PPT property is re-checked on
    every detection rather than assumed.
    """
    threshold = family_threshold(a, b)
    if abs(float(c)) > threshold:
        return TwoTwoClassification(verdict="unphysical", norm=None, threshold=threshold)
    norm = realignment_norm_two_two(a, b, c)
    if norm > 1.0 + DETECTION_TOL:
        if not is_ppt(two_two_family(a, b, c), modes_b=(2, 3)):
            raise NumericDomainError(
                f"detected point (a={a}, b={b}, c={c}) unexpectedly fails the PPT "
                "check; bound-entanglement verdict would be unsound"
            )
        return TwoTwoClassification(verdict="bound_entangled", norm=norm, threshold=threshold)
    return TwoTwoClassification(verdict="undetected", norm=norm, threshold=threshold)
