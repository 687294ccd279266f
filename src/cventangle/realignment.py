"""Realignment criterion for n+n mode Gaussian states via canonical correlations.

The Gram operator R(rho) R(rho)† of a Gaussian state is Gaussian, with
covariance G = (L^T V L + S^T V^{-1} S) / 2 and prefactor a0 = 2^{-2m}
det(V)^{-1/2} (m = 2n modes), and the realigned trace norm is
sqrt(a0) prod_i (sqrt(2 nu_i + 1/2) + sqrt(2 nu_i - 1/2)) over its symplectic
eigenvalues nu_i.  A norm whose optimal-witness value 1 - norm, plus the
norm's error bound (0 for the closed forms), is below -DETECTION_TOL
certifies entanglement, bound included.

Only the side-A rows of L and S are nonzero: L_A = [E, I] and S_A = [X, J] / 4
per mode (E = diag(1, -1), X = [[0, 1], [1, 0]]).  They satisfy
L_A J L_A^T = S_A J S_A^T = 0 and L_A J S_A^T = I/2, so G is symplectically
congruent to V_A / 2 (+) (V^{-1})_A / 8 and the nu_i^2 are the eigenvalues of
V_A (V^{-1})_A / 16.  With V_A = R_A R_A^T, V_B = R_B R_B^T (Cholesky), let
s_i be the singular values of K = R_A^{-1} C R_B^{-T}, the canonical
correlations of the two sides.  Then R_A^T (V^{-1})_A R_A = (I - K K^T)^{-1}
and det V = det V_A det V_B prod_i (1 - s_i^2), so with
g = (det V_A det V_B)^{1/(4n)}

    nu_i = 1 / (4 sqrt(1 - s_i^2)),    a0 = prod_i 1 / (4 g sqrt(1 - s_i^2)),
    ||R(rho)||_1 = prod_i 1 / (2 sqrt(g (1 - s_i))).

A product has s_i = 0: nu_i = 1/4 exactly.  The standard forms of Duan,
Giedke, Cirac and Zoller (PRL 84, 2722 (2000)) and Simon (PRL 84, 2726
(2000)), blocks a I, b I coupled by C with C C^T diagonal (``standard2``:
C = diag(c1, c2); ``two_two``: C = c R, R R^T = I, so c_i = c four times),
have g = sqrt(ab) and s_i = |c_i| / sqrt(ab), so

    ||R(rho)||_1 = prod_i 1 / (2 sqrt(sqrt(ab) - |c_i|)),

evaluated factor by factor by :func:`standard_form_norm` from the gaps
sqrt(ab) - |c_i| of :func:`standard_form_gaps`: exact two-products correct
the rounded sqrt(ab), so each gap is within a few ulps at every scale, and at
a = b it is a - |c_i| rounded once.  A 2+2 threshold lost to rounding is a
numeric-domain failure (the CLI exits 3), not invalid input.
:func:`realignment_norm` of a standard form or a covariance and
:func:`classify_two_two` end in one computation of the norm and Gram spectrum
from g and the gaps.  Where a0, the purity, underflows, there is no spectrum.

The 2+2 family needs no PPT check.  Its partial transpose on side B flips
the momenta p3 and p4, which maps V to D V D with
D = diag(1, 1, -1, -1, 1, 1, -1, -1) bit for bit: R couples x1 with x3, x2
with x4, p1 with p4 and p2 with p3, and both sign patterns negate exactly the
last two couplings (only signs change, so no rounding).  D is a pi
rotation of modes 2 and 4, local and symplectic, so V^{T_B} is physical
exactly when V is: every physical point of the family is PPT, and a realigned
norm that is detected certifies bound entanglement.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import (InvalidArgumentError, NumericDomainError, SingularLimitError,
                     require_vacuum_bound)
from .symplectic import CovarianceMatrix, WilliamsonSpectrum, require_physical

if TYPE_CHECKING:
    from .states import TwoModeStandardForm

#: Witness and SWAP values, and the optimal-witness value of a realigned norm
#: plus its error bound, 1 - norm + normError (0 for the closed forms), below
#: -DETECTION_TOL count as detected entanglement.
DETECTION_TOL = 1e-10


def detects_entanglement(value):
    """The one verdict rule, on numbers or arrays; a realigned norm passes
    1 - norm + normError."""
    return value < -DETECTION_TOL


@dataclass(frozen=True)
class RealignmentResult:
    """Realigned trace norm, the Gram spectrum behind it (None where its
    prefactor a0 leaves the float range), the first-order error bound of the
    norm (0.0 for the closed forms) and the verdict, which the norm must
    reach with that error taken against it."""

    norm: float
    spectrum: Optional[WilliamsonSpectrum]
    norm_error: float = 0.0

    @property
    def verdict(self) -> str:
        return ("entangled" if detects_entanglement(1.0 - self.norm + self.norm_error)
                else "undetected")


def _result(g: float, gaps, relative=None, error=0.0) -> RealignmentResult:
    """The realigned norm prod_i 1 / (2 sqrt(gap_i)) of the absolute gaps
    g (1 - s_i), SingularLimitError where NaN, its error bound norm * error
    (error relative), and the nu_i and a0 of the module docstring from g and
    the relative gaps 1 - s_i (default gap_i / g), with 1 - s_i^2 =
    gap (2 - gap): no spectrum where a0 underflows or overflows."""
    norm = _norm_of_gaps(gaps)
    if math.isnan(norm):
        raise SingularLimitError(f"realigned norm diverges at a gap <= 0 or leaves the float "
                                 f"range (scale g={g}, gaps {gaps})")
    roots = [math.sqrt(x * (2.0 - x)) for x in relative or [gap / g for gap in gaps]]
    a0 = math.prod(0.25 / (g * root) for root in roots)
    spectrum = (WilliamsonSpectrum(nus=tuple(sorted(0.25 / root for root in roots)), a0=float(a0))
                if 0.0 < a0 < math.inf else None)
    return RealignmentResult(norm=norm, spectrum=spectrum, norm_error=norm * error)


def realignment_norm(state: TwoModeStandardForm | CovarianceMatrix) -> RealignmentResult:
    """Realigned trace norm and Gram spectrum (module docstring) of a two-mode
    standard form, from the gaps of its physicality test, or of an n+n mode
    covariance V, from its canonical correlations.  An unphysical V is refused
    (:func:`cventangle.symplectic.require_physical`, which runs no second
    eigen-solve on a V it has passed, such as a ``raw_covariance`` build).

    Refusal bound and normError.  With k = 2n and u = 2^-53, row and column i
    of V are first scaled by 2^-floor(p_i / 2), p_i the binary exponent of
    V_ii: exactly (above the subnormals), so M has V's canonical correlations,
    every M_ii in [1/2, 2), and log det V_X = 2 sum log diag R_X +
    ln 4 sum_{i in X} floor(p_i / 2) for M_X = R_X R_X^T.  With
    kappa_X = ||M_X|| ||M_X^{-1}|| (Cholesky's error follows the scaled block:
    van der Sluis, Numer. Math. 14, 14 (1969)), the computed s_i are, to first
    order in u, within 3 k^2 u (kappa_A + kappa_B) of the canonical
    correlations.  The Cholesky factor (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, Thm 10.3) and its computed inverse are exact
    for M_A (1 + F) with ||F|| <= (k + 1)(k + 2) u kappa_A, and whitening by
    them moves each s_i <= 1 by at most ||F|| / 2.  The two products add at
    most k^2 u (kappa_A + kappa_B), as ||C||^2 <= ||M_A|| ||M_B||, and the SVD
    a small multiple of k u ||K|| <= k u (Weyl).  The code bounds kappa_X by
    ||M_X||_F tr(M_X^{-1}) = ||M_X||_F ||R_X^{-1}||_F^2, in range as every
    |M_ij| < 2, and allows 4 k^2 u (kappa_A + kappa_B): where some 1 - s_i is
    not above that allowance, s_i = 1 lies within rounding and the norm is
    refused.  Above it, each factor 1 / sqrt(1 - s_i) carries a relative
    error of at most about allowance / (2 (1 - s_i)), and tr F moves
    log det V_X, which the norm carries as (det V_A det V_B)^{-1/4} through g,
    by at most k (k + 1)(k + 2) u kappa_X, so the norm by at most
    k allowance / 4:

        normError = norm allowance (k / 4 + sum_i 1 / (2 (1 - s_i))).

    The verdict reads 1 - norm + normError, so only the lower side, true
    norm >= norm - normError, and there normError bounds the error beyond
    first order in x_i = allowance / (1 - s_i): each true 1 - s_i is at most
    (1 - s_i)(1 + x_i), 1 - (1 + x)^{-1/2} <= x / 2, e^{-d} >= 1 - d, and
    prod_i (1 - a_i) >= 1 - sum_i a_i for a_i in [0, 1].  A large normError
    (up to 0.42 of the norm for rotated squeezed vacuum products at
    zeta = 8) makes the verdict conservative, not wrong.  The upper side is
    first order only, as (1 - x)^{-1/2} - 1 > x / 2.  The rounding of the
    logarithms and of exp adds about k u |ln g| (|ln g| < 750), which
    DETECTION_TOL covers.

    Raises:
        InvalidArgumentError: for another type, an odd mode split or an unphysical V.
        NumericDomainError: where a physical V has a local block that is not
            positive definite in floating point (its Cholesky factorization fails).
        SingularLimitError: where some 1 - s_i is within the allowance, or the
            norm leaves the float range.
    """
    if not isinstance(state, CovarianceMatrix):
        sab_gaps = getattr(state, "_gaps", None)  # kept by every TwoModeStandardForm
        if sab_gaps is None:
            raise InvalidArgumentError(f"realignment_norm takes a TwoModeStandardForm or a "
                                       f"CovarianceMatrix, got {type(state).__name__}")
        return _result(*sab_gaps)
    V = state
    k = V.modes  # 2n: the dimension of each side
    if k % 2:
        raise InvalidArgumentError(f"realignment requires an even n+n mode split, got {k} modes")
    require_physical(V)
    q = [math.frexp(x)[1] >> 1 for x in V.matrix.diagonal().tolist()]  # floor(p_i / 2)
    e = np.array(q)
    M = np.ldexp(V.matrix, -(e[:, None] + e))  # one rounding, and only below 2^-1022
    local = np.array([M[:k, :k], M[k:, k:]])
    try:
        R = np.linalg.cholesky(local)
    except np.linalg.LinAlgError as exc:
        raise NumericDomainError("local block not positive definite in floating point") from exc
    W = np.linalg.inv(R)
    s = np.linalg.svd(W[0] @ M[:k, k:] @ W[1].T, compute_uv=False)
    # squared Frobenius norms of M_A, M_B, R_A^-1, R_B^-1
    blocks = np.array([local, W]).reshape(4, 1, -1)
    fa, fb, wa, wb = (blocks @ blocks.transpose(0, 2, 1)).ravel().tolist()
    allowance = 4.0 * k * k * 2.0**-53 * (math.sqrt(fa) * wa + math.sqrt(fb) * wb)
    gaps = (1.0 - s).tolist()
    if not min(gaps) > allowance:
        raise SingularLimitError(f"realigned norm diverges: canonical correlation "
                                 f"{float(s.max())!r} is within {allowance:.1e} of 1")
    # g = (det V_A det V_B)^(1 / 2k), the exponents q taken back exactly
    g = math.exp((sum(map(math.log, R.diagonal(axis1=1, axis2=2).ravel().tolist()))
                  + math.log(2.0) * sum(q)) / k)
    error = allowance * (k / 4.0 + sum(0.5 / gap for gap in gaps))
    return _result(g, [g * gap for gap in gaps], gaps, error)


#: 2^27 + 1: x * _SPLIT splits a double x into two halves of at most 26
#: significant bits each (Veltkamp), whose products are exact.
_SPLIT = 134217729.0


def _two_product(x, y):
    """(p, e) with p = fl(xy) and p + e = xy exactly (Dekker, Numer. Math. 18,
    224 (1971)) for |x|, |y| below 2^996 and xy clear of underflow.  Only +,
    - and *, so it runs on numbers and arrays alike (math.fma needs Python 3.13)."""
    p = x * y
    t = _SPLIT * x
    xh = t - (t - x)
    t = _SPLIT * y
    yh = t - (t - y)
    xl, yl = x - xh, y - yh
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _sqrt(x):
    """np.sqrt, and on a Python float math.sqrt where x > 0 and NaN elsewhere
    (at 0 too, so that no float division by it raises).

    The float branch: each closed form is written once and runs on Python
    floats as on arrays.  + - * / and sqrt round correctly on both, exp and
    cosh are numpy's on both, and only arrays need np.errstate.  A float stays
    a float: each step costs several times more on a numpy scalar."""
    if isinstance(x, float):
        return math.sqrt(x) if x > 0.0 else math.nan
    return np.sqrt(x)


def _nan_unless(ok, value):
    """value where ok and NaN elsewhere, on a Python bool or on arrays."""
    return (value if ok else math.nan) if type(ok) is bool else value * NAN_OR_ONE.take(ok)


def _errstate(*xs):
    """np.errstate(all="ignore") unless every argument is a Python float."""
    for x in xs:
        if type(x) is not float:
            return np.errstate(all="ignore")
    return _NO_ERRSTATE


_NO_ERRSTATE = contextlib.nullcontext()


def standard_form_gaps(a, b, couplings):
    """sqrt(ab) and the gaps sqrt(ab) - |c_i| of a standard form, on numbers or
    arrays that broadcast together, each within a few ulps for any a, b >= 1/4;
    NaN where ab is not positive and finite (:func:`standard_form_norm`
    silences the floating-point warnings of arrays).

    With p + e = ab and q + f = s^2 exact two-products and s = sqrt(p),
    sqrt(ab) = s + r / (2s) to second order in the small r = (p - q) - f + e,
    and each gap is (s - |c_i|) + r / (2s), with s - |c_i| exact where it
    cancels (Sterbenz).  At a = b, s = a and r = 0, so the gap is a - |c_i|
    rounded once; at c_i = 0 it is sqrt(ab), bit for bit.  Where a or b
    exceeds 2^500 both are first scaled by 2^-600, exactly, to keep ab and the
    splits in range.  No np.where: on numbers it costs more than the formula.
    """
    unscale = 2.0 ** (600 * ((a > 2.0**500) | (b > 2.0**500)))
    p, e = _two_product(a / unscale, b / unscale)
    s = _sqrt(p)
    q, f = _two_product(s, s)
    correction = ((p - q) - f + e) / (s + s) * unscale
    s *= unscale
    return s + correction, [(s - abs(c)) + correction for c in couplings]


def standard_form_norm(a, b, couplings):
    """Realigned norm of a standard form with local blocks a I, b I and
    couplings c_i (module docstring), on numbers or arrays that broadcast
    together:

        prod_i 1 / (2 sqrt(sqrt(ab) - |c_i|)),

    NaN where it is not positive and finite (|c_i| >= sqrt(ab), overflow or
    underflow), from the gaps of :func:`standard_form_gaps`."""
    with _errstate(a, b, *couplings):
        return _norm_of_gaps(standard_form_gaps(a, b, couplings)[1])


def _norm_of_gaps(gaps):
    norm = math.prod(0.5 / _sqrt(gap) for gap in gaps)
    return _nan_unless((norm > 0.0) & (norm < math.inf), norm)


_TWO_TWO_R = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ]
)


def two_two_family(a: float, b: float, c: float) -> CovarianceMatrix:
    """8x8 covariance of the 2+2-mode family [[a I4, c R], [c R^T, b I4]].

    Physicality is not enforced here: the matrix is a valid state iff
    |c| <= :func:`family_threshold`; use :func:`classify_two_two` to report it.
    """
    a, b, c = float(a), float(b), float(c)
    require_vacuum_bound(a=a, b=b)
    I4 = np.eye(4)
    return CovarianceMatrix(np.block([[a * I4, c * _TWO_TWO_R], [c * _TWO_TWO_R.T, b * I4]]))


#: Radicands of the 2+2 threshold in [-RADICAND_TOL, 0) are rounding and
#: read as 0 (they occur where a or b is 1/4).
RADICAND_TOL = 1e-12
#: value * NAN_OR_ONE.take(ok) is value where ok and NaN elsewhere (no np.where)
NAN_OR_ONE = np.array([np.nan, 1.0])


def family_threshold_array(a, b):
    """Largest |c| for which the 2+2 family is a valid state, on numbers or
    arrays that broadcast together:

        sqrt(ab - sqrt(a^2 + b^2 - 1/16)/4),

    NaN where a or b is below the vacuum variance 1/4 or not a number, and
    where the radicand is lost to rounding: NaN (a^2 + b^2 or ab overflows)
    or below -RADICAND_TOL.  The exact radicand is never negative, as
    (ab)^2 - (a^2 + b^2 - 1/16)/16 = (16a^2 - 1)(16b^2 - 1)/16.
    """
    with _errstate(a, b):
        radicand = a * b - _sqrt(a * a + b * b - 1.0 / 16.0) / 4.0
        ok = (a >= 0.25) & (b >= 0.25) & (radicand >= -RADICAND_TOL)
        # sqrt(max(radicand, 0)), which is 0 at 0 where _sqrt of a float is NaN
        root = (math.sqrt(max(radicand, 0.0)) if type(radicand) is float
                else np.sqrt(np.maximum(radicand, 0.0)))
        return _nan_unless(ok, root)


def family_threshold(a: float, b: float) -> float:
    """:func:`family_threshold_array` at one point, on its float branch
    (:func:`_sqrt`): the same formula and the same bits as on arrays.

    Raises:
        InvalidArgumentError: below the vacuum bound.
        NumericDomainError: where the threshold is lost to rounding.
    """
    a, b = float(a), float(b)
    require_vacuum_bound(a=a, b=b)
    threshold = family_threshold_array(a, b)
    if math.isnan(threshold):
        raise NumericDomainError(
            f"2+2 family threshold lost to rounding or overflow at a={a}, b={b}")
    return threshold


@dataclass(frozen=True)
class TwoTwoClassification:
    """Verdict for one point of the 2+2 family, with the quantities behind it:
    the realigned norm (None where unphysical), the threshold and the Gram
    spectrum of the norm (None where unphysical or where its prefactor a0
    underflows, so the verdict never depends on a0)."""

    verdict: str
    norm: Optional[float]
    threshold: float
    spectrum: Optional[WilliamsonSpectrum] = None


_TWO_TWO_VERDICTS = np.array(["undetected", "bound_entangled", "unphysical", "invalid"])


def classify_two_two_array(a, b, c):
    """Classify points of the 2+2 family, given as arrays that broadcast
    together, as unphysical, undetected or bound entangled.

    Returns the arrays ``(verdict, norm, threshold)``: the verdict
    (``undetected``, ``bound_entangled``, ``unphysical``, or ``invalid`` where
    :func:`classify_two_two` refuses the point), the realigned norm (NaN where
    unphysical or invalid) and the threshold (NaN where refused).  A point is
    unphysical where |c| exceeds its threshold, and invalid where its
    threshold or, at a physical point, its norm is NaN (see
    :func:`family_threshold_array`, :func:`standard_form_norm`).
    Every physical point is PPT (module docstring), so a norm that
    :func:`detects_entanglement` on 1 - norm certifies bound entanglement.
    """
    threshold = family_threshold_array(a, b)
    norm = standard_form_norm(a, b, (c,) * 4)
    unphysical = abs(c) > threshold
    invalid = np.isnan(threshold) | (~unphysical & np.isnan(norm))
    detected = ~invalid & ~unphysical & detects_entanglement(1.0 - norm)
    verdict = _TWO_TWO_VERDICTS[3 * invalid + 2 * unphysical + detected]  # exclusive flags
    return verdict, norm * NAN_OR_ONE.take(~invalid & ~unphysical), threshold


def classify_two_two(a: float, b: float, c: float) -> TwoTwoClassification:
    """:func:`classify_two_two_array` at one point, read from
    :func:`family_threshold` and, only where |c| is within it, the realigned
    norm and Gram spectrum of one :func:`standard_form_gaps` (:func:`_result`,
    as :func:`realignment_norm` computes them).  Each formula is the array
    form's, run on its float branch (:func:`_sqrt`), so values and verdicts
    match the array form bit for bit, and a point it calls ``invalid`` raises
    here.  The spectrum is None where its prefactor a0, the purity of the
    state, underflows (a = b from about 1e80): the array form has no spectrum,
    and the verdict does not read it.

    Raises:
        InvalidArgumentError: below the vacuum bound, or where c is NaN.
        NumericDomainError: where the threshold is lost to rounding.
        SingularLimitError: where the realigned norm of a physical point
            diverges or leaves the float range.
    """
    a, b, c = float(a), float(b), float(c)
    threshold = family_threshold(a, b)
    if math.isnan(c):
        raise InvalidArgumentError("constraint violated: the coupling c must be a number (got nan)")
    if abs(c) > threshold:
        return TwoTwoClassification(verdict="unphysical", norm=None, threshold=threshold)
    result = _result(*standard_form_gaps(a, b, (c,) * 4))
    verdict = "bound_entangled" if result.verdict == "entangled" else "undetected"
    return TwoTwoClassification(verdict=verdict, norm=result.norm, threshold=threshold,
                                spectrum=result.spectrum)
