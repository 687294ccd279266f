"""Covariance-matrix algebra for multimode Gaussian states.

Conventions used throughout the package: quadratures are x = (a + a†)/2 and
p = -i(a - a†)/2, so the vacuum has variance 1/4 and a matrix V is a valid
state covariance iff V + iJ/4 >= 0.  Phase-space coordinates are interleaved
as (x1, p1, ..., xm, pm).  To convert to the hbar = 2 literature multiply V
by 4; the hbar = 1/2 literature matches as-is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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
        if not np.all(np.isfinite(m)):
            raise InvalidArgumentError("covariance matrix entries must be finite")
        scale = max(1.0, float(np.abs(m).max()))
        if float(np.abs(m - m.T).max()) > SYMMETRY_TOL * scale:
            raise InvalidArgumentError(
                f"covariance matrix asymmetry exceeds relative tolerance {SYMMETRY_TOL}"
            )
        m = (m + m.T) / 2.0
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def modes(self) -> int:
        return self.matrix.shape[0] // 2

    @property
    def ordering(self) -> str:
        return ",".join(ORDERING_TEMPLATE.format(i + 1) for i in range(self.modes))

    @classmethod
    def from_fields(cls, modes: float, ordering: str, matrix: list) -> "CovarianceMatrix":
        """Build from the decoded fields of a ``raw_covariance`` state
        descriptor, checking that they agree."""
        try:
            matrix = np.asarray(matrix, dtype=float)
        except ValueError as exc:  # ragged rows
            raise InvalidArgumentError(f"malformed covariance matrix: {exc}") from exc
        cov = cls(matrix)
        if cov.modes != modes:
            raise InvalidArgumentError(
                f"matrix dimension {matrix.shape[0]} does not match modes={modes:g}"
            )
        if ordering.replace(" ", "") != cov.ordering:
            raise InvalidArgumentError(
                f"unsupported quadrature ordering {ordering!r}; expected {cov.ordering!r}"
            )
        return cov


@dataclass(frozen=True)
class WilliamsonSpectrum:
    """Symplectic eigenvalues of a Gaussian characteristic function plus its
    scalar prefactor (1 when the function describes a density operator)."""

    nus: tuple[float, ...]
    a0: float = 1.0

    def __post_init__(self):
        nus = tuple(float(x) for x in self.nus)
        if any(x < 0 or not np.isfinite(x) for x in nus):
            raise InvalidArgumentError("symplectic eigenvalues must be finite and nonnegative")
        if list(nus) != sorted(nus):
            raise InvalidArgumentError("symplectic eigenvalues must be sorted ascending")
        if not (self.a0 > 0 and np.isfinite(self.a0)):
            raise InvalidArgumentError("prefactor a0 must be positive")
        object.__setattr__(self, "nus", nus)
        object.__setattr__(self, "a0", float(self.a0))


def physical_mask(matrices) -> np.ndarray:
    """Physicality test of a stack of real symmetric 2m x 2m matrices (shape
    (..., 2m, 2m), unvalidated): true where V + iJ/4 has minimum eigenvalue
    >= -PHYSICALITY_TOL, with one stacked eigen-solve.
    """
    matrices = np.asarray(matrices, dtype=float)
    J = symplectic_form(matrices.shape[-1] // 2)
    return np.linalg.eigvalsh(matrices + 0.25j * J).min(axis=-1) >= -PHYSICALITY_TOL


def is_physical(V: CovarianceMatrix) -> bool:
    """True iff the Hermitian matrix V + iJ/4 has minimum eigenvalue >= -PHYSICALITY_TOL.

    Boundary (pure) states pass: vacuum saturates the bound exactly.
    """
    return bool(physical_mask(V.matrix))


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
