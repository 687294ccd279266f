"""The Wigner-slice integral of a zero-mean two-mode Gaussian state.

The witness family and the SWAP observable integrate the Wigner function W of
a state with covariance V = [[A, C], [C^T, B]] (2x2 blocks) over the plane
xi = T u = (-D u, u), u in R^2, with D = diag(d-, d+).  For a Gaussian W,

    integral of W(T u) du = 1 / (2 pi sqrt(det V det(T^T V^-1 T))).

The columns of P = [I; D] span the orthogonal complement of the plane and
T^T T = P^T P = I + D^2, so det V det(T^T V^-1 T) = det(P^T V P), and

    P^T V P = A + C D + D C^T + D B D.

The integral is therefore one 2x2 determinant, with no inverse and no
quadrature; the result carries rounding error only.  A determinant that is
not positive means V is not positive definite in floating point, e.g. a
squeezed state whose a - |c| is below one ulp of a; like a nonpositive K-K+ in
:func:`cventangle.witness.witness_expectation_gaussian`, that is a numeric-domain
failure.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError, NumericDomainError
from .symplectic import CovarianceMatrix


def slice_integral(V: CovarianceMatrix, d_minus: float, d_plus: float) -> float:
    """Integral of the Wigner function of the zero-mean two-mode Gaussian state
    with covariance ``V`` over the slice xi = (-d- x, -d+ p, x, p):

        1 / (2 pi sqrt(det(A + C D + D C^T + D B D))),  D = diag(d-, d+).

    Raises:
        InvalidArgumentError: if V is not two-mode.
        NumericDomainError: if the slice determinant is not positive (or NaN).
    """
    if V.modes != 2:
        raise InvalidArgumentError(
            f"witness and SWAP expectations require a two-mode covariance, got {V.modes} modes"
        )
    m = V.matrix
    d = np.array([d_minus, d_plus], dtype=float)
    cd = m[:2, 2:] * d
    s00, s01, s10, s11 = (m[:2, :2] + cd + cd.T + m[2:, 2:] * np.outer(d, d)).ravel().tolist()
    # f = 2^-e exactly, 2^e above the larger diagonal entry, which bounds every
    # entry of a positive definite matrix: the scaled determinant cannot overflow
    f = math.ldexp(1.0, -math.frexp(max(s00, s11))[1])
    det = (s00 * f) * (s11 * f) - (s01 * f) * (s10 * f)
    if not det > 0.0:
        raise NumericDomainError(
            f"slice determinant must be positive, got {det / f / f}; the covariance "
            "is not positive definite in floating point"
        )
    return f / (2.0 * math.pi * math.sqrt(det))
