"""Covariance-matrix algebra for multimode Gaussian states.

Conventions used throughout the package: quadratures are x = (a + a†)/2 and
p = -i(a - a†)/2, so the vacuum has variance 1/4 and a matrix V is a valid
state covariance iff V + iJ/4 >= 0.  Phase-space coordinates are interleaved
as (x1, p1, ..., xm, pm).  To convert to the hbar = 2 literature multiply V
by 4; the hbar = 1/2 literature matches as-is.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, SingularInputError

#: Relative tolerance for accepting a matrix as symmetric.
SYMMETRY_TOL = 1e-12
#: Tolerance on the minimum eigenvalue of V + iJ/4 in the physicality test.
PHYSICALITY_TOL = 1e-10
#: Relative tolerance on the real residual of the eigenvalues of J^-1 V.
IMAG_RESIDUAL_TOL = 1e-9

ORDERING_TEMPLATE = "x{0},p{0}"


def symplectic_form(modes: int) -> np.ndarray:
    """Return the 2m x 2m symplectic form, one [[0, 1], [-1, 0]] block per mode."""
    if not isinstance(modes, (int, np.integer)) or modes < 1:
        raise InvalidArgumentError(f"modes must be a positive integer, got {modes!r}")
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    J = np.zeros((2 * modes, 2 * modes))
    for i in range(modes):
        J[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = block
    return J


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real symmetric 2m x 2m matrix of symmetrized quadrature second moments.

    Inputs with relative asymmetry below ``SYMMETRY_TOL`` are symmetrized as
    (V + V^T)/2; anything worse is rejected.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidArgumentError(f"covariance matrix must be square, got shape {m.shape}")
        if m.shape[0] == 0 or m.shape[0] % 2:
            raise InvalidArgumentError(
                f"covariance matrix dimension must be a positive even number, got {m.shape[0]}"
            )
        if not math.isfinite(largest := float(np.abs(m).max())):  # NaN or inf where an entry is
            raise InvalidArgumentError("covariance matrix entries must be finite")
        # halving is exact above the subnormals, and no sum or difference of two
        # halves overflows
        half, scale = m / 2.0, max(1.0, largest)
        if float(np.abs(half - half.T).max()) > SYMMETRY_TOL / 2.0 * scale:
            raise InvalidArgumentError(
                f"covariance matrix asymmetry exceeds relative tolerance {SYMMETRY_TOL}"
            )
        m = half + half.T
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def modes(self) -> int:
        return self.matrix.shape[0] // 2

    def slice_matrix(self, d_minus: float, d_plus: float) -> list[float]:
        """Entries (s00, s01, s10, s11) of the slice matrix A + C D + D C^T + D B D
        of :mod:`cventangle.phase_space`; InvalidArgumentError unless two-mode."""
        if self.modes != 2:
            raise InvalidArgumentError(f"witness and SWAP expectations require a two-mode "
                                       f"covariance, got {self.modes} modes")
        # Python floats: an entry that overflows becomes inf without a warning,
        # and slice_integral refuses it
        m, d = self.matrix.tolist(), (float(d_minus), float(d_plus))
        return [m[i][j] + m[i][j + 2] * d[j] + m[j][i + 2] * d[i] + m[i + 2][j + 2] * (d[i] * d[j])
                for i in range(2) for j in range(2)]

    @property
    def ordering(self) -> str:
        return ",".join(ORDERING_TEMPLATE.format(i + 1) for i in range(self.modes))

    @classmethod
    def from_fields(cls, modes: float, ordering: str, matrix: np.ndarray) -> "CovarianceMatrix":
        """Build from the decoded fields of a ``raw_covariance`` state
        descriptor, checking that they agree."""
        cov = cls(matrix)
        if cov.modes != modes:
            raise InvalidArgumentError(
                f"matrix dimension {cov.matrix.shape[0]} does not match modes={modes:g}"
            )
        if ordering.replace(" ", "") != cov.ordering:
            raise InvalidArgumentError(
                f"unsupported quadrature ordering {ordering!r}; expected {cov.ordering!r}"
            )
        return cov


@dataclass(frozen=True)
class WilliamsonSpectrum:
    """Symplectic eigenvalues of a Gaussian characteristic function plus its
    scalar prefactor (1 when the function describes a density operator).

    A plain record: its producers (:func:`symplectic_eigenvalues` and the
    realignment Gram spectra) guarantee that ``nus`` is a tuple of sorted,
    finite, positive floats and that ``a0`` is a float in (0, inf)."""

    nus: tuple[float, ...]
    a0: float = 1.0


@functools.lru_cache(maxsize=8)
def _quarter_iJ(modes: int) -> np.ndarray:
    """iJ/4, built once per mode count and shared: read-only."""
    term = 0.25j * symplectic_form(modes)
    term.setflags(write=False)
    return term


def is_physical(V: CovarianceMatrix) -> bool:
    """True iff the Hermitian matrix V + iJ/4 has minimum eigenvalue >= -PHYSICALITY_TOL.

    Boundary (pure) states pass: vacuum saturates the bound exactly.
    """
    return bool(np.linalg.eigvalsh(V.matrix + _quarter_iJ(V.modes)).min() >= -PHYSICALITY_TOL)


def require_physical(V: CovarianceMatrix) -> CovarianceMatrix:
    """``V``, refused unless :func:`is_physical`: the one place that refuses
    a covariance for physicality.  A pass is recorded on the instance, so a
    second call on it runs no eigen-solve.

    Raises:
        InvalidArgumentError: where V + iJ/4 >= 0 fails.
    """
    if not V.__dict__.get("_physical"):
        if not is_physical(V):
            raise InvalidArgumentError(
                "constraint violated: covariance fails the physicality test V + iJ/4 >= 0"
            )
        object.__setattr__(V, "_physical", True)
    return V


def symplectic_eigenvalues(V: CovarianceMatrix) -> WilliamsonSpectrum:
    """Symplectic spectrum of a positive-definite covariance matrix.

    The m positive numbers nu_i such that J^-1 V has eigenvalues +-(i nu_i),
    sorted ascending.  Each eigenvalue pair must be purely imaginary up to a
    relative residual of ``IMAG_RESIDUAL_TOL``; the residual is discarded.

    Raises:
        SingularInputError: if V is not positive definite or the eigenvalues
            of J^-1 V carry a real part beyond the tolerance.
    """
    if float(np.linalg.eigvalsh(V.matrix).min()) <= 0.0:
        raise SingularInputError("covariance matrix must be positive definite")
    J = symplectic_form(V.modes)
    eigs = np.linalg.eigvals(np.linalg.solve(J, V.matrix))
    scale = max(1.0, float(np.abs(eigs).max()))
    if float(np.abs(eigs.real).max()) > IMAG_RESIDUAL_TOL * scale:
        raise SingularInputError(
            "eigenvalues of J^-1 V are not purely imaginary; matrix is not a "
            "valid quadrature covariance"
        )
    vals = np.sort(np.abs(eigs.imag))
    # conjugate pairs land adjacent after sorting; average to kill solver noise
    nus = 0.5 * (vals[0::2] + vals[1::2])
    return WilliamsonSpectrum(nus=tuple(float(x) for x in nus), a0=1.0)
