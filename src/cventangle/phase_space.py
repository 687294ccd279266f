"""Gaussian phase-space integration helpers.

Polynomials over phase-space coordinates are represented as mappings from
exponent tuples to real coefficients, e.g. ``{(2, 0, 0, 0): 1.0}`` is x1^2 on
a two-mode space.  All integrals here are of the restricted form

    integral of  P(T u) * G(T u)  over u in R^k,

where G is a normalized zero-mean Gaussian and T a (2m x k) slice matrix.  For
a polynomial P the integral is a finite sum of Gaussian moments of xi = T u,
evaluated exactly by Isserlis' theorem; no quadrature is involved.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError


# ---------------------------------------------------------------------------
# polynomial algebra
# ---------------------------------------------------------------------------

def _moment(cov: np.ndarray, idx: tuple) -> float:
    """E[xi_i1 ... xi_ik] for zero-mean xi ~ N(0, cov), by Isserlis' recursion

        E[xi_i1 ... xi_ik] = sum_j cov[i1, ij] E[rest without ij].
    """
    if not idx:
        return 1.0
    first, rest = idx[0], idx[1:]
    total = 0.0
    for pos in range(len(rest)):
        pair = cov[first, rest[pos]]
        if pair != 0.0:
            total += pair * _moment(cov, rest[:pos] + rest[pos + 1 :])
    return total


# ---------------------------------------------------------------------------
# Gaussian cores and slice integrals
# ---------------------------------------------------------------------------

def slice_integral(spec, T: np.ndarray) -> float:
    """Integral of spec's Wigner function restricted to the linear slice xi = T u.

    ``spec`` provides ``covariance`` and ``poly`` (see
    :class:`cventangle.states.WignerSpec`).  The zero-mean Gaussian core
    restricted to the slice is integrated in closed form and the polynomial
    prefactor by exact Gaussian-moment algebra, so the result carries rounding
    error only.
    """
    V = spec.covariance.matrix
    T = np.asarray(T, dtype=float)
    if T.shape[0] != V.shape[0]:
        raise InvalidArgumentError(
            f"slice matrix has {T.shape[0]} rows for a {V.shape[0]}-dimensional space"
        )
    M = T.T @ np.linalg.solve(V, T)
    sign, logdet = np.linalg.slogdet(M)
    if sign <= 0:
        raise InvalidArgumentError("slice Gaussian is degenerate")
    sign_v, logdet_v = np.linalg.slogdet(V)
    if sign_v <= 0:
        raise InvalidArgumentError("Gaussian core requires a positive-definite covariance")
    # core normalization (2 pi)^-m det(V)^-1/2, times the slice integral
    norm = math.exp(-(V.shape[0] / 2) * math.log(2 * math.pi) - 0.5 * logdet_v)
    gauss = math.exp((T.shape[1] / 2) * math.log(2 * math.pi) - 0.5 * logdet)
    # on the slice u ~ N(0, M^-1), so xi = T u ~ N(0, T M^-1 T^T): the
    # prefactor's expectation E[P(xi)] is a sum of moments
    cov = T @ np.linalg.solve(M, T.T)
    moments = 1.0 if spec.poly is None else 0.0
    for expo, coeff in (spec.poly or {}).items():
        idx = tuple(i for i, p in enumerate(expo) for _ in range(p))
        moments += coeff * _moment(cov, idx)
    return float(norm * gauss * moments)
