"""The Wigner-slice integral of a zero-mean two-mode Gaussian state.

The witness family and the SWAP observable integrate the Wigner function W of
a state with covariance V = [[A, C], [C^T, B]] (2x2 blocks) over the plane
xi = T u = (-D u, u), u in R^2, with D = diag(d-, d+).  For a Gaussian W,

    integral of W(T u) du = 1 / (2 pi sqrt(det V det(T^T V^-1 T))).

The columns of P = [I; D] span the orthogonal complement of the plane and
T^T T = P^T P = I + D^2, so det V det(T^T V^-1 T) = det S with the slice
matrix S = P^T V P = A + C D + D C^T + D B D.

Each Gaussian state type supplies S as ``slice_matrix(d-, d+)``: a
:class:`cventangle.symplectic.CovarianceMatrix` from its blocks, a
:class:`cventangle.states.TwoModeStandardForm` (A = a I, B = b I,
C = diag(c1, c2)) as diag(K-, K+), K-+ = a + b d-+^2 + 2 c1,2 d-+, without
building V.  :func:`slice_integral` returns pi times the integral,
1 / (2 sqrt(det S)): both expectations carry that factor pi, so no value is
divided by pi and multiplied by it again.  It is one 2x2 determinant, with
no inverse and no quadrature, so it carries rounding error only.  An S that is not positive
definite (Sylvester: s00 > 0 and det S > 0) means V is not positive definite
in floating point (e.g. a - |c| below one ulp of a, or unvalidated input): a
numeric-domain failure, as is an entry of S that leaves the float range.
"""

from __future__ import annotations

import math

from .errors import NumericDomainError


def slice_integral(state, d_minus: float, d_plus: float) -> float:
    """pi times the integral of the Wigner function of the zero-mean
    two-mode Gaussian ``state`` over the slice xi = (-d- x, -d+ p, x, p):

        1 / (2 sqrt(det S)),  S = state.slice_matrix(d-, d+),

    the factor pi that the witness and SWAP expectations apply, applied
    exactly rather than through a rounded division by pi.

    Raises:
        InvalidArgumentError: if the state is not two-mode.
        NumericDomainError: if S has an infinite entry or is not positive definite (or NaN).
    """
    s00, s01, s10, s11 = state.slice_matrix(d_minus, d_plus)
    # f = 2^-e exactly, 2^e above the larger diagonal entry, which bounds every
    # entry of a positive definite matrix: the scaled determinant cannot overflow
    f = math.ldexp(1.0, -math.frexp(max(s00, s11))[1])
    det = (s00 * f) * (s11 * f) - (s01 * f) * (s10 * f)
    if not (s00 > 0.0 and 0.0 < det < math.inf):  # inf: an entry overflowed, not a 0 integral
        raise NumericDomainError(
            f"slice matrix must be positive definite, got s00={s00} and slice determinant "
            f"{det / f / f}; V is not positive definite in floating point, or S overflows"
        )
    return f / (2.0 * math.sqrt(det))
