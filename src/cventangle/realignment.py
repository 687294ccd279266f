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
    physical_mask,
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


def realignment_norm_two_two_array(a, b, c):
    """Closed form for the 2+2-mode family on arrays that broadcast together:

        1 / (16 (ab + c^2 - 2 sqrt(ab) |c|)),

    NaN where the denominator is not positive (|c| = sqrt(ab)) or the norm is
    not finite.
    """
    with np.errstate(all="ignore"):
        norm = 1.0 / (16.0 * (a * b + c * c - 2.0 * np.sqrt(a * b) * abs(c)))
        # positive and finite exactly where the denominator is positive and
        # its reciprocal does not overflow
        return np.where((norm > 0.0) & (norm < np.inf), norm, np.nan)[()]


def realignment_norm_two_two(a: float, b: float, c: float) -> float:
    """:func:`realignment_norm_two_two_array` at one point.

    Raises:
        SingularLimitError: where the norm diverges.
    """
    a, b, c = float(a), float(b), float(c)
    norm = float(realignment_norm_two_two_array(a, b, c))
    if math.isnan(norm):
        raise SingularLimitError(f"realigned norm diverges at |c| = sqrt(ab) (a={a}, b={b}, c={c})")
    return norm


_TWO_TWO_R = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ]
)
#: The 2+2 covariance is a A + b B + c C with these 8x8 matrices.
_TWO_TWO_A = np.diag([1.0] * 4 + [0.0] * 4)
_TWO_TWO_B = np.diag([0.0] * 4 + [1.0] * 4)
_TWO_TWO_C = np.block([[np.zeros((4, 4)), _TWO_TWO_R], [_TWO_TWO_R.T, np.zeros((4, 4))]])

#: Momentum signs of the partial transpose on side B (modes 2 and 3) of the
#: 2+2 family.
_FLIP_B = np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.0, 1.0, -1.0])


def _two_two_matrices(a, b, c) -> np.ndarray:
    """The 8x8 matrices [[a I4, c R], [c R^T, b I4]] of the 2+2 family for
    arrays a, b, c of one shape, stacked along the leading axes; unvalidated."""
    outer = np.multiply.outer
    return outer(a, _TWO_TWO_A) + outer(b, _TWO_TWO_B) + outer(c, _TWO_TWO_C)


def two_two_family(a: float, b: float, c: float) -> CovarianceMatrix:
    """8x8 covariance of the 2+2-mode family [[a I4, c R], [c R^T, b I4]].

    Physicality is not enforced here: the matrix is a valid state iff
    |c| <= :func:`family_threshold`; use :func:`cventangle.symplectic.is_physical`
    or :func:`classify_two_two` to report it.
    """
    a, b, c = float(a), float(b), float(c)
    require_vacuum_bound(a=a, b=b)
    return CovarianceMatrix(_two_two_matrices(a, b, c))


#: Radicands of the 2+2 threshold in [-RADICAND_TOL, 0) are rounding and
#: read as 0 (they occur where a or b is 1/4).
RADICAND_TOL = 1e-12


def family_threshold_array(a, b):
    """Largest |c| for which the 2+2 family is a valid state, on arrays that
    broadcast together:

        sqrt(ab - sqrt(a^2 + b^2 - 1/16)/4),

    NaN where a or b is below the vacuum variance 1/4 or not a number, and
    where the radicand is NaN (ab overflows) or below -RADICAND_TOL.
    """
    with np.errstate(all="ignore"):
        radicand = a * b - np.sqrt(a * a + b * b - 1.0 / 16.0) / 4.0
        ok = (a >= 0.25) & (b >= 0.25) & (radicand >= -RADICAND_TOL)
        return np.where(ok, np.sqrt(np.maximum(radicand, 0.0)), np.nan)[()]


def family_threshold(a: float, b: float) -> float:
    """:func:`family_threshold_array` at one point.

    Raises:
        InvalidArgumentError: below the vacuum bound or for a negative radicand.
        NumericDomainError: where ab overflows.
    """
    a, b = float(a), float(b)
    require_vacuum_bound(a=a, b=b)
    threshold = float(family_threshold_array(a, b))
    if math.isnan(threshold):
        if math.isinf(a * b):  # the radicand is inf - inf
            raise NumericDomainError(f"family threshold overflows at a={a}, b={b}")
        raise InvalidArgumentError(
            f"no valid correlation exists for a={a}, b={b} (negative radicand)"
        )
    return threshold


@dataclass(frozen=True)
class TwoTwoClassification:
    """Verdict for one point of the 2+2 family, with the quantities behind it."""

    verdict: str
    norm: Optional[float]
    threshold: float


_TWO_TWO_VERDICTS = np.array(["undetected", "bound_entangled", "unphysical", "invalid"])


def classify_two_two_array(a, b, c):
    """Classify points of the 2+2 family, given as arrays that broadcast
    together, as unphysical, undetected or bound entangled.

    Returns the arrays ``(verdict, norm, threshold)``: the verdict
    (``undetected``, ``bound_entangled``, ``unphysical``, or ``invalid`` where
    :func:`classify_two_two` refuses the point), the realigned norm (NaN where
    unphysical or invalid) and the threshold (NaN where refused).  A point is
    invalid where its threshold or its norm is refused (see
    :func:`family_threshold_array`, :func:`realignment_norm_two_two_array`),
    or where it is detected but its partial transpose V^{T_B} + iJ/4 fails
    the physicality test: the family is PPT everywhere in its physical
    region, so a realigned norm above 1 certifies bound entanglement, and the
    PPT property is re-checked on every detection (one stacked eigen-solve)
    rather than assumed.
    """
    threshold = family_threshold_array(a, b)
    norm = realignment_norm_two_two_array(a, b, c)
    unphysical = abs(c) > threshold
    invalid = np.isnan(threshold) | (~unphysical & np.isnan(norm))
    detected = ~invalid & ~unphysical & (norm > 1.0 + DETECTION_TOL)
    if np.count_nonzero(detected):
        a, b, c, detected = np.broadcast_arrays(a, b, c, detected)
        V = _two_two_matrices(a[detected], b[detected], c[detected])
        not_ppt = np.zeros(detected.shape, dtype=bool)
        not_ppt[detected] = ~physical_mask(_FLIP_B[:, None] * V * _FLIP_B)
        invalid, detected = invalid | not_ppt, detected & ~not_ppt
    verdict = _TWO_TWO_VERDICTS[3 * invalid + 2 * unphysical + detected]  # exclusive flags
    return verdict, np.where(unphysical | invalid, np.nan, norm)[()], threshold


def classify_two_two(a: float, b: float, c: float) -> TwoTwoClassification:
    """:func:`classify_two_two_array` at one point.

    Raises:
        InvalidArgumentError: below the vacuum bound or for a negative
            threshold radicand.
        NumericDomainError: where the threshold overflows, or where a detected
            point fails the PPT re-check (the verdict would be unsound).
        SingularLimitError: where the realigned norm diverges.
    """
    a, b, c = float(a), float(b), float(c)
    verdict, norm, threshold = classify_two_two_array(a, b, c)
    verdict = str(verdict)
    if verdict == "invalid":
        # the array form only marks the point; the scalar closed forms say why
        family_threshold(a, b)
        realignment_norm_two_two(a, b, c)
        raise NumericDomainError(
            f"detected point (a={a}, b={b}, c={c}) unexpectedly fails the PPT "
            "check; bound-entanglement verdict would be unsound"
        )
    norm = None if verdict == "unphysical" else float(norm)
    return TwoTwoClassification(verdict=verdict, norm=norm, threshold=float(threshold))
