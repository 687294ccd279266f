"""Shared generators for randomized sweeps.

All sweeps are seeded so the suite is deterministic; generators yield only
states that satisfy the constructors' own validity checks.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from cventangle import CovarianceMatrix, TwoModeStandardForm, is_physical, symplectic_form


def wigner_value(spec, points) -> np.ndarray:
    """Reference pointwise evaluation of a zero-mean ``WignerSpec`` at
    phase-space points of shape (..., 2m): the normalized Gaussian core times
    the polynomial prefactor."""
    points = np.asarray(points, dtype=float)
    V = spec.covariance.matrix
    quad = np.einsum("...i,ij,...j->...", points, np.linalg.inv(V), points)
    gauss = np.exp(-0.5 * quad) / ((2 * np.pi) ** spec.modes * np.sqrt(np.linalg.det(V)))
    prefactor = np.ones(points.shape[:-1]) if spec.poly is None else np.zeros(points.shape[:-1])
    for expo, coeff in (spec.poly or {}).items():
        prefactor += coeff * np.prod(points ** np.array(expo), axis=-1)
    return gauss * prefactor


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_standard_form(rng, symmetric=False, margin=0.0) -> TwoModeStandardForm:
    """Random physical standard form; ``margin`` keeps sqrt(ab) - |c_i| away
    from zero so closed forms with that denominator stay well conditioned."""
    while True:
        a = rng.uniform(0.25, 2.0)
        b = a if symmetric else rng.uniform(0.25, 2.0)
        sab = np.sqrt(a * b)
        c1 = rng.uniform(-(sab - margin), sab - margin)
        c2 = rng.uniform(-(sab - margin), sab - margin)
        try:
            return TwoModeStandardForm(a, b, c1, c2)
        except Exception:
            continue


def random_product_form(rng) -> TwoModeStandardForm:
    return TwoModeStandardForm(rng.uniform(0.25, 2.0), rng.uniform(0.25, 2.0), 0.0, 0.0)


def random_single_mode_cov(rng) -> np.ndarray:
    """Random physical single-mode covariance (rotated squeezed thermal).

    Thermal occupation is kept off the pure boundary, where the realigned
    norm of the rank-one Gram operator picks up sqrt(eps) eigen-solver noise;
    the pure-product case is pinned exactly by the vacuum tests.
    """
    nbar = rng.uniform(0.01, 1.5)
    r = rng.uniform(0.0, 1.0)
    theta = rng.uniform(0.0, 2 * np.pi)
    base = (1 + 2 * nbar) / 4.0 * np.diag([np.exp(2 * r), np.exp(-2 * r)])
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return rot @ base @ rot.T


def random_product_cov(rng) -> CovarianceMatrix:
    """Two-mode product state with independent random single-mode factors."""
    V = np.zeros((4, 4))
    V[:2, :2] = random_single_mode_cov(rng)
    V[2:, 2:] = random_single_mode_cov(rng)
    cov = CovarianceMatrix(V)
    assert is_physical(cov)
    return cov


def random_physical_cov(rng, modes: int) -> CovarianceMatrix:
    """Random physical multimode covariance: S (thermal diag) S^T."""
    S = random_symplectic(rng, modes, scale=0.4)
    nus = rng.uniform(0.25, 0.8, size=modes)
    D = np.diag(np.repeat(nus, 2))
    return CovarianceMatrix(S @ D @ S.T)


def random_symplectic(rng, modes: int, scale: float = 0.5) -> np.ndarray:
    """Random symplectic matrix exp(J H) with H symmetric."""
    H = rng.normal(size=(2 * modes, 2 * modes)) * scale
    H = (H + H.T) / 2.0
    return expm(symplectic_form(modes) @ H)
