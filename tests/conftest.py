"""Shared generators for randomized sweeps, and the reference implementations
the tests compare the package against.

All sweeps are seeded so the suite is deterministic; generators yield only
states that satisfy the constructors' own validity checks.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np
import pytest
from scipy.linalg import expm

from cventangle import (CovarianceMatrix, InvalidArgumentError, TwoModeStandardForm,
                        WilliamsonSpectrum, WitnessParams, is_physical, realigned_gram_covariance,
                        squeezed_thermal_params, symplectic_eigenvalues, symplectic_form)
from cventangle import realignment

#: Two states whose realigned norm is the double 1.0000000001 = fl(1 + 1e-10),
#: which lies above 1 + 1e-10: the optimal-witness value 1 - norm is below
#: -1e-10, so both are detected
STANDARD2_EDGE = {"family": "standard2", "a": 0.7045398660562153, "b": 0.7045398660562153,
                  "c1": 0.45453986608121527, "c2": -0.45453986608121527}
TWO_TWO_EDGE = {"family": "two_two", "a": 1.434352542334553, "b": 1.434352542334553,
                "c": 1.184352542347053}


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
    """Random physical single-mode covariance (rotated squeezed thermal),
    pure (thermal occupation 0) for about a third of the draws."""
    nbar = 0.0 if rng.random() < 1 / 3 else rng.uniform(0.0, 1.5)
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


def norm_from_spectrum(spectrum) -> float:
    """Realigned trace norm from a Gram spectrum:

        sqrt(a0) * prod_i (sqrt(2 nu_i + 1/2) + sqrt(2 nu_i - 1/2)),

    with 2 nu_i - 1/2 clamped at 0 (nu_i = 1/4 up to rounding for pure states).
    """
    norm = math.sqrt(spectrum.a0)
    for nu in spectrum.nus:
        norm *= math.sqrt(2.0 * nu + 0.5) + math.sqrt(max(2.0 * nu - 0.5, 0.0))
    return norm


def gram_route(V: CovarianceMatrix) -> tuple[float, WilliamsonSpectrum]:
    """Reference realigned norm and Gram spectrum through the Gram covariance
    and its symplectic eigen-solve."""
    gram, a0 = realigned_gram_covariance(V)
    spectrum = WilliamsonSpectrum(nus=symplectic_eigenvalues(gram).nus, a0=a0)
    return norm_from_spectrum(spectrum), spectrum


def standard_form_gram_spectrum(a: float, b: float, couplings) -> WilliamsonSpectrum:
    """The Gram spectrum that eval reports for a standard form (None where a0
    leaves the float range), next to its realigned norm from the same
    standard_form_gaps."""
    return realignment._result(*realignment.standard_form_gaps(a, b, couplings)).spectrum


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


def two_mode_cov(nus, theta, r, local) -> np.ndarray:
    """Exactly symmetric two-mode covariance: thermal modes ``nus`` (pure at
    1/4) through a beam splitter ``theta`` and two-mode squeezing ``r`` (a
    product at theta = r = 0), then on each mode the symplectic given by
    ``(squeeze, (angle1, angle2))`` in ``local``: rotation, squeezer, rotation.
    """
    def one_mode(squeeze, angles):
        (c1, s1), (c2, s2) = ((np.cos(t), np.sin(t)) for t in angles)
        e = np.exp(squeeze)
        return np.array([[c1, -s1], [s1, c1]]) @ np.diag([e, 1.0 / e]) @ np.array([[c2, -s2], [s2, c2]])

    ch, sh, c, s = np.cosh(r), np.sinh(r), np.cos(theta), np.sin(theta)
    tms = np.array([[ch, 0, sh, 0], [0, ch, 0, -sh], [sh, 0, ch, 0], [0, -sh, 0, ch]])
    bs = np.array([[c, 0, s, 0], [0, c, 0, s], [-s, 0, c, 0], [0, -s, 0, c]])
    L = np.zeros((4, 4))
    L[:2, :2], L[2:, 2:] = (one_mode(*op) for op in local)
    S = L @ tms @ bs
    V = S @ np.diag([nus[0], nus[0], nus[1], nus[1]]) @ S.T
    return (V + V.T) / 2


# ---------------------------------------------------------------------------
# partial transpose and the PPT test
# ---------------------------------------------------------------------------

def _mode_index_list(modes_b: Iterable[int], m: int) -> Sequence[int]:
    idx = sorted(set(int(i) for i in modes_b))
    if not idx:
        raise InvalidArgumentError("modes_b must be a non-empty set of mode indices")
    if idx[0] < 0 or idx[-1] >= m:
        raise InvalidArgumentError(f"mode index out of range for {m}-mode state: {idx}")
    return idx


def partial_transpose(V: CovarianceMatrix, modes_b: Iterable[int]) -> CovarianceMatrix:
    """Momentum-sign-flip partial transpose L V L on the given modes (0-indexed).

    L = diag(..., 1, -1, ...) flips p_j for every j in ``modes_b``; applying
    the operation twice returns the input bit-exactly.
    """
    idx = _mode_index_list(modes_b, V.modes)
    signs = np.ones(2 * V.modes)
    for j in idx:
        signs[2 * j + 1] = -1.0
    return CovarianceMatrix(signs[:, None] * V.matrix * signs[None, :])


def is_ppt(V: CovarianceMatrix, modes_b: Iterable[int]) -> bool:
    """True iff the partial transpose of a physical V is still physical."""
    return is_physical(partial_transpose(V, modes_b))


# ---------------------------------------------------------------------------
# Gaussian-moment reference for Wigner-slice integrals
#
# Polynomials over phase-space coordinates are mappings from exponent tuples
# to real coefficients, e.g. {(2, 0, 0, 0): 1.0} is x1^2 on a two-mode space.
# The integral of P(T u) G(T u) over u in R^k, with G a normalized zero-mean
# Gaussian and T a (2m x k) slice matrix, is a finite sum of Gaussian moments
# of xi = T u, evaluated exactly by Isserlis' theorem.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WignerSpec:
    """A zero-mean Wigner function: Gaussian core x optional polynomial prefactor.

    ``poly`` maps exponent tuples over (x1, p1, ..., xm, pm) to coefficients.
    """

    covariance: CovarianceMatrix
    poly: Optional[Mapping[tuple, float]] = None

    def __post_init__(self):
        if self.poly is not None:
            dim = 2 * self.covariance.modes
            poly = {}
            for expo, coeff in self.poly.items():
                expo = tuple(int(e) for e in expo)
                if len(expo) != dim or any(e < 0 for e in expo):
                    raise InvalidArgumentError(f"bad exponent tuple {expo} for {dim} coordinates")
                poly[expo] = float(coeff)
            object.__setattr__(self, "poly", poly)

    @property
    def modes(self) -> int:
        return self.covariance.modes


def photon_added_sts_wigner(n: float, r: float) -> WignerSpec:
    """Wigner function of the single-photon-added (mode 2) symmetric two-mode
    squeezed thermal state: quadratic prefactor times the squeezed-thermal
    Gaussian core.  Integrates to 1; W(0, 0) < 0 reflects the added photon.
    """
    n, r = float(n), float(r)
    core = squeezed_thermal_params(n, r).covariance()
    m = 1.0 + 2.0 * n
    C = math.cosh(2.0 * r)
    S = math.sinh(2.0 * r)
    beta = m + C
    denom = m * m * (math.cosh(r) ** 2 + n * C)
    const = -m * (n + math.cosh(r) ** 2)
    # [(beta x2 - S x1)^2 + (beta p2 + S p1)^2 + const] / denom
    poly = {
        (0, 0, 2, 0): beta * beta / denom,
        (1, 0, 1, 0): -2.0 * beta * S / denom,
        (2, 0, 0, 0): S * S / denom,
        (0, 0, 0, 2): beta * beta / denom,
        (0, 1, 0, 1): 2.0 * beta * S / denom,
        (0, 2, 0, 0): S * S / denom,
        (0, 0, 0, 0): const / denom,
    }
    return WignerSpec(covariance=core, poly=poly)


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


def moments_slice_integral(spec: WignerSpec, T: np.ndarray) -> float:
    """Integral of spec's Wigner function restricted to the linear slice xi = T u.

    The zero-mean Gaussian core restricted to the slice is integrated in
    closed form and the polynomial prefactor by exact Gaussian-moment algebra,
    so the result carries rounding error only.
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


def moments_witness(spec: WignerSpec, w: WitnessParams) -> float:
    """Witness expectation 1 - pi sqrt|mu- mu+| * integral W(-mu- x, -mu+ p, x, p)
    of a two-mode Wigner function, by the moments reference."""
    T = np.array([[-w.mu_minus, 0.0], [0.0, -w.mu_plus], [1.0, 0.0], [0.0, 1.0]])
    return 1.0 - math.pi * math.sqrt(abs(w.mu_minus * w.mu_plus)) * moments_slice_integral(spec, T)


def moments_swap(spec: WignerSpec) -> float:
    """SWAP expectation pi * integral W(x, p, x, p) of a two-mode Wigner
    function, by the moments reference."""
    T = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    return math.pi * moments_slice_integral(spec, T)
