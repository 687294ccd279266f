"""Gaussian phase-space integration helpers.

Polynomials over phase-space coordinates are represented as mappings from
exponent tuples to real coefficients, e.g. ``{(2, 0, 0, 0): 1.0}`` is x1^2 on
a two-mode space.  All integrals here are of the restricted form

    integral of  P(T u) * G(T u)  over u in R^k,

where G is a normalized Gaussian and T a (2m x k) slice matrix.  For a
polynomial P the integral is a finite sum of Gaussian moments of xi = T u,
evaluated exactly by one moment recursion; no quadrature is involved.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

import numpy as np

from .errors import InvalidArgumentError

Polynomial = Mapping[tuple, float]


# ---------------------------------------------------------------------------
# polynomial algebra
# ---------------------------------------------------------------------------

def poly_eval(poly: Optional[Polynomial], points: np.ndarray) -> np.ndarray:
    """Evaluate a polynomial at ``points`` of shape (..., nvars)."""
    points = np.asarray(points, dtype=float)
    if poly is None:
        return np.ones(points.shape[:-1])
    out = np.zeros(points.shape[:-1])
    for expo, coeff in poly.items():
        term = np.full(points.shape[:-1], coeff)
        for axis, power in enumerate(expo):
            if power:
                term = term * points[..., axis] ** power
        out += term
    return out


def _moment(mean: np.ndarray, cov: np.ndarray, idx: tuple) -> float:
    """E[xi_i1 ... xi_ik] for xi ~ N(mean, cov), by the recursion

        E[xi_i1 ... xi_ik] = mean_i1 E[rest] + sum_j cov[i1, ij] E[rest without ij].
    """
    if not idx:
        return 1.0
    first, rest = idx[0], idx[1:]
    total = mean[first] * _moment(mean, cov, rest) if mean[first] != 0.0 else 0.0
    for pos in range(len(rest)):
        pair = cov[first, rest[pos]]
        if pair != 0.0:
            total += pair * _moment(mean, cov, rest[:pos] + rest[pos + 1 :])
    return total


def gaussian_expect_poly(poly: Optional[Polynomial], mean: np.ndarray, cov: np.ndarray) -> float:
    """Exact E[P(xi)] for xi ~ N(mean, cov)."""
    if poly is None:
        return 1.0
    mean, cov = np.asarray(mean, dtype=float), np.asarray(cov, dtype=float)
    total = 0.0
    for expo, coeff in poly.items():
        idx = tuple(i for i, p in enumerate(expo) for _ in range(p))
        total += coeff * _moment(mean, cov, idx)
    return total


# ---------------------------------------------------------------------------
# Gaussian cores and slice integrals
# ---------------------------------------------------------------------------

def gaussian_normal_constant(V: np.ndarray) -> float:
    """Normalization (2 pi)^-m det(V)^-1/2 of a 2m-dimensional Gaussian."""
    dim = V.shape[0]
    sign, logdet = np.linalg.slogdet(V)
    if sign <= 0:
        raise InvalidArgumentError("Gaussian core requires a positive-definite covariance")
    return math.exp(-(dim / 2) * math.log(2 * math.pi) - 0.5 * logdet)


def _slice_geometry(V: np.ndarray, mean: np.ndarray, T: np.ndarray):
    """Gaussian restricted to xi = T u: returns (M, u0, c0) with

    exponent(u) = -(u - u0)^T M (u - u0)/2 - c0.
    """
    Vinv_T = np.linalg.solve(V, T)
    M = T.T @ Vinv_T
    g = Vinv_T.T @ mean
    u0 = np.linalg.solve(M, g)
    c0 = 0.5 * float(mean @ np.linalg.solve(V, mean) - u0 @ M @ u0)
    return M, u0, c0


def slice_integral(spec, T: np.ndarray) -> float:
    """Integral of spec's Wigner function restricted to the affine slice xi = T u.

    ``spec`` provides ``covariance``, ``mean``, ``poly`` and ``norm_prefactor``
    (see :class:`cventangle.states.WignerSpec`).  The Gaussian core restricted
    to the slice is integrated in closed form and the polynomial prefactor by
    exact Gaussian-moment algebra, so the result carries rounding error only.
    """
    V = spec.covariance.matrix
    mean = np.asarray(spec.mean, dtype=float)
    T = np.asarray(T, dtype=float)
    if T.shape[0] != V.shape[0]:
        raise InvalidArgumentError(
            f"slice matrix has {T.shape[0]} rows for a {V.shape[0]}-dimensional space"
        )
    M, u0, c0 = _slice_geometry(V, mean, T)
    sign, logdet = np.linalg.slogdet(M)
    if sign <= 0:
        raise InvalidArgumentError("slice Gaussian is degenerate")
    k = T.shape[1]
    base = spec.norm_prefactor * gaussian_normal_constant(V) * math.exp(-c0)
    gauss = math.exp((k / 2) * math.log(2 * math.pi) - 0.5 * logdet)
    # on the slice xi = T u with u ~ N(u0, M^-1): xi ~ N(T u0, T M^-1 T^T)
    moments = gaussian_expect_poly(spec.poly, T @ u0, T @ np.linalg.solve(M, T.T))
    return float(base * gauss * moments)
