"""Gaussian phase-space integration helpers.

Polynomials over phase-space coordinates are represented as mappings from
exponent tuples to real coefficients, e.g. ``{(2, 0, 0, 0): 1.0}`` is x1^2 on
a two-mode space.  All integrals here are of the restricted form

    integral of  P(T u) * G(T u)  over u in R^k,

where G is a normalized Gaussian and T a (2m x k) slice matrix.  For a
polynomial P the integral is a finite sum of Gaussian moments, which is
evaluated exactly (Wick pairings); no quadrature is involved.
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


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def poly_affine_substitute(
    poly: Optional[Polynomial], T: np.ndarray, shift: Optional[np.ndarray] = None
) -> Optional[dict]:
    """Substitute xi = T u + shift, returning a polynomial in u.

    ``T`` has shape (nvars_old, nvars_new).
    """
    if poly is None:
        return None
    T = np.asarray(T, dtype=float)
    nold, nnew = T.shape
    if shift is None:
        shift = np.zeros(nold)
    zero = (0,) * nnew
    # linear polynomial for each old coordinate
    lin = []
    for j in range(nold):
        lj = {zero: float(shift[j])}
        for k in range(nnew):
            if T[j, k] != 0.0:
                e = [0] * nnew
                e[k] = 1
                lj[tuple(e)] = float(T[j, k])
        lin.append(lj)
    out: dict = {}
    for expo, coeff in poly.items():
        term = {zero: float(coeff)}
        for j, power in enumerate(expo):
            for _ in range(power):
                term = _poly_mul(term, lin[j])
        for e, c in term.items():
            out[e] = out.get(e, 0.0) + c
    return {e: c for e, c in out.items() if c != 0.0} or {zero: 0.0}


def _central_moment(cov: np.ndarray, idx: tuple) -> float:
    """E[z_i1 ... z_ik] for zero-mean Gaussian z via Wick pairings."""
    k = len(idx)
    if k == 0:
        return 1.0
    if k % 2:
        return 0.0
    first, rest = idx[0], idx[1:]
    total = 0.0
    for pos in range(len(rest)):
        pair = cov[first, rest[pos]]
        if pair != 0.0:
            total += pair * _central_moment(cov, rest[:pos] + rest[pos + 1 :])
    return total


def gaussian_expect_poly(poly: Optional[Polynomial], mean: np.ndarray, cov: np.ndarray) -> float:
    """Exact E[P(u)] for u ~ N(mean, cov)."""
    if poly is None:
        return 1.0
    n = len(mean)
    centered = poly_affine_substitute(poly, np.eye(n), mean)
    total = 0.0
    for expo, coeff in centered.items():
        idx = tuple(i for i, p in enumerate(expo) for _ in range(p))
        total += coeff * _central_moment(np.asarray(cov, float), idx)
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
    poly_u = poly_affine_substitute(spec.poly, T) if spec.poly else None
    return float(base * gauss * gaussian_expect_poly(poly_u, u0, np.linalg.inv(M)))
