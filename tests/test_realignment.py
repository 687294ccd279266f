import io
import json
import math
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cventangle import (
    CovarianceMatrix,
    InvalidArgumentError,
    NumericDomainError,
    SingularLimitError,
    TwoModeStandardForm,
    TwoTwoFamilyParams,
    classify_two_two,
    family_threshold,
    is_physical,
    optimal_witness,
    realignment_norm,
    squeezed_thermal_params,
    state_descriptor,
    tmsv_params,
    two_two_family,
)
from cventangle.cli import EXIT_INVALID, EXIT_NUMERIC, EXIT_OK, evaluate_quantity, main
from cventangle.realignment import (DETECTION_TOL, classify_two_two_array, realignment_result,
                                    standard_form_gaps, standard_form_norm)
from cventangle.states import family_of, parse_state_descriptor
from cventangle.witness import swap_photon_added_closed, witness_photon_added_closed
from conftest import (STANDARD2_EDGE, gram_route, is_ppt, norm_from_spectrum, partial_transpose,
                      random_physical_cov, random_product_cov, random_standard_form,
                      random_symplectic, realigned_gram_covariance, standard_form_gram_spectrum,
                      symplectic_eigenvalues, two_mode_cov)


def gram_reference_two_mode(a, b, c1, c2):
    """The printed 4x4 Gram covariance, frozen as the regression anchor.

    Basis pairs the same-index quadrature combinations; diagonal carries
    (b + 16 a d_i)/(32 d_i) with d_i = ab - c_i^2, off-diagonal carries
    -+(b - 16 a d_i)/(32 d_i).
    """
    d1, d2 = a * b - c1 * c1, a * b - c2 * c2
    diag2 = (b + 16 * a * d2) / (32 * d2)
    diag1 = (b + 16 * a * d1) / (32 * d1)
    off2 = (b - 16 * a * d2) / (32 * d2)
    off1 = (b - 16 * a * d1) / (32 * d1)
    return np.array(
        [
            [diag2, 0.0, -off2, 0.0],
            [0.0, diag1, 0.0, off1],
            [-off2, 0.0, diag2, 0.0],
            [0.0, off1, 0.0, diag1],
        ]
    )


def gram_reference_two_two(a, b, c):
    """The printed 8x8 Gram covariance of the 2+2 family."""
    d = a * b - c * c
    diag = (b + 16 * a * d) / (32 * d)
    off = (b - 16 * a * d) / (32 * d)
    M = np.diag([diag] * 8)
    for i, sign in zip(range(4), (-1.0, 1.0, -1.0, 1.0)):
        M[i, i + 4] = sign * off
        M[i + 4, i] = sign * off
    return M


class TestGramCovariance:
    def test_matches_printed_two_mode_matrix(self, rng):
        for _ in range(20):
            s = random_standard_form(rng)
            gram, a0 = realigned_gram_covariance(s.covariance())
            ref = gram_reference_two_mode(s.a, s.b, s.c1, s.c2)
            assert np.max(np.abs(gram.matrix - ref)) < 1e-12
            d1, d2 = s.a * s.b - s.c1**2, s.a * s.b - s.c2**2
            assert abs(a0 - 1.0 / (16.0 * math.sqrt(d1 * d2))) < 1e-12

    def test_matches_printed_two_two_matrix(self, rng):
        for _ in range(20):
            a = rng.uniform(0.3, 2.0)
            b = rng.uniform(0.3, 2.0)
            c = rng.uniform(-1.0, 1.0) * family_threshold(a, b)
            gram, a0 = realigned_gram_covariance(two_two_family(a, b, c))
            ref = gram_reference_two_two(a, b, c)
            assert np.max(np.abs(gram.matrix - ref)) < 1e-12
            assert abs(a0 - (1.0 / (16.0 * (a * b - c * c))) ** 2) < 1e-12

    def test_vacuum_gram_is_vacuum(self):
        gram, a0 = realigned_gram_covariance(CovarianceMatrix(np.eye(4) / 4))
        assert np.allclose(gram.matrix, np.eye(4) / 4, atol=1e-15)
        assert abs(a0 - 1.0) < 1e-15

    def test_a0_is_purity(self, rng):
        # a0 equals Tr(rho^2) = 4^-m / sqrt(det V)
        for _ in range(10):
            s = random_standard_form(rng)
            _, a0 = realigned_gram_covariance(s.covariance())
            purity = 4.0**-2 / math.sqrt(np.linalg.det(s.covariance().matrix))
            assert abs(a0 - purity) < 1e-13

    def test_gram_is_a_state(self, rng):
        # R R† is positive with trace Tr(rho^2) = a0, so R R† / a0 is a density
        # operator: its covariance passes the physicality test, its symplectic
        # eigenvalues are at least 1/4, and they are the package's spectrum
        for _ in range(20):
            V = random_physical_cov(rng, int(rng.choice([2, 4])))
            gram, a0 = realigned_gram_covariance(V)
            assert is_physical(gram)
            assert 0.0 < a0 <= 1.0 + 1e-12
            nus = realignment_norm(V).spectrum.nus
            assert min(nus) >= 0.25 - 1e-12
            assert np.allclose(nus, symplectic_eigenvalues(gram), rtol=1e-8)


class TestRealignmentNorm:
    def test_vacuum(self):
        result = realignment_norm(CovarianceMatrix(np.eye(4) / 4))
        assert abs(result.norm - 1.0) < 1e-12
        assert result.verdict == "undetected"

    def test_tmsv_chain(self):
        result = realignment_norm(tmsv_params(0.6).covariance())
        assert abs(result.norm - math.exp(1.2)) < 1e-12
        assert result.verdict == "entangled"
        # intermediates: Gram eigenvalues cosh(2r)/4, prefactor 1
        assert np.allclose(result.spectrum.nus, [math.cosh(1.2) / 4] * 2, atol=1e-12)
        assert abs(result.spectrum.a0 - 1.0) < 1e-12

    def test_two_two_detected_point(self):
        result = realignment_norm(two_two_family(1.0, 1.0, 0.78))
        assert abs(result.norm - 1.2913223140495869) < 1e-10
        assert abs(result.norm - 1.0 / (16 * (1 + 0.78**2 - 2 * 0.78))) < 1e-10

    def test_closed_form_agreement_two_mode(self, rng):
        for _ in range(200):
            s = random_standard_form(rng, margin=1e-3)
            generic = realignment_norm(s.covariance()).norm
            assert abs(generic - realignment_norm(s).norm) < 1e-10

    def test_closed_form_agreement_two_two(self, rng):
        for _ in range(200):
            a = rng.uniform(0.3, 2.0)
            b = rng.uniform(0.3, 2.0)
            c = rng.uniform(-0.999, 0.999) * family_threshold(a, b)
            generic = realignment_norm(two_two_family(a, b, c)).norm
            assert abs(generic - standard_form_norm(a, b, (c,) * 4)) < 1e-10

    def test_separable_product_guard(self, rng):
        for _ in range(100):
            assert realignment_norm(random_product_cov(rng)).norm <= 1.0 + 1e-10

    def test_product_norm_is_root_purity(self, rng):
        # product states, pure ones included: norm = sqrt(purity_A * purity_B),
        # with every canonical correlation exactly 0
        for _ in range(30):
            cov = random_product_cov(rng)
            pa = 0.25 / math.sqrt(np.linalg.det(cov.matrix[:2, :2]))
            pb = 0.25 / math.sqrt(np.linalg.det(cov.matrix[2:, 2:]))
            assert abs(realignment_norm(cov).norm - math.sqrt(pa * pb)) < 1e-12

    @settings(max_examples=300, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), modes=st.sampled_from([2, 4]),
           log_scale=st.floats(-6.0, 0.0))
    def test_noise_never_raises_pure_core_norm(self, seed, modes, log_scale):
        # a pure 1+1 or 2+2 core V_p = S S^T / 4 plus classical noise Y = G G^T
        # (spectral norm 1e-6 to 1): the realigned norm of V_p + Y stays at or
        # below the pure core's, so ||R||_1 - 1 never exceeds its negativity
        rng = np.random.default_rng(seed)
        S = random_symplectic(rng, modes)
        G = rng.normal(size=(2 * modes, 2 * modes))
        Y = G @ G.T
        Y *= 10.0**log_scale / np.linalg.norm(Y, 2)
        pure = realignment_norm(CovarianceMatrix(S @ S.T / 4)).norm
        noisy = realignment_norm(CovarianceMatrix(S @ S.T / 4 + Y)).norm
        assert noisy <= pure * (1 + 1e-12)


def raw_eval(V):
    """Exit code and record of ``eval realignment_norm`` on a raw covariance."""
    doc = json.dumps(state_descriptor(CovarianceMatrix(V)))
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(["eval", "--state", doc, "--quantity", "realignment_norm"])
    return code, json.loads(out.getvalue()) if code == EXIT_OK else None


def rotated(V, angles):
    """Two-mode V with each mode rotated by its phase-space angle."""
    L = np.zeros((4, 4))
    for i, t in enumerate(angles):
        L[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[math.cos(t), -math.sin(t)],
                                               [math.sin(t), math.cos(t)]]
    V = L @ V @ L.T
    return (V + V.T) / 2


def rotated_tmsv(r, angles=(0.0, 0.0)):
    """TMSV covariance built from math.cosh/math.sinh, each mode then rotated
    by its phase-space angle."""
    a, c = math.cosh(2 * r) / 4, math.sinh(2 * r) / 4
    return rotated(np.array([[a, 0, c, 0], [0, a, 0, -c], [c, 0, a, 0], [0, -c, 0, a]]), angles)


def local_squeezing(V, zeta):
    """V squeezed by diag(e^zeta, e^-zeta) on every mode."""
    L = np.diag([math.exp(zeta), math.exp(-zeta)] * (V.shape[0] // 2))
    V = L @ V @ L.T
    return (V + V.T) / 2


def canonical_norm_80_digits(V):
    """The canonical-correlation norm of the stored matrix in 80-digit
    arithmetic (module docstring of :mod:`cventangle.realignment`)."""
    with mpmath.workdps(80):
        k = V.shape[0] // 2
        M = mpmath.matrix(V.tolist())
        RA, RB = mpmath.cholesky(M[:k, :k]), mpmath.cholesky(M[k:, k:])
        K = mpmath.inverse(RA) * M[:k, k:] * mpmath.inverse(RB).T
        norm = (mpmath.det(M[:k, :k]) * mpmath.det(M[k:, k:])) ** mpmath.mpf(-0.25) / 4 ** (k // 2)
        for s in mpmath.svd_r(K, compute_uv=False):
            norm /= mpmath.sqrt(1 - s)
        return norm


class TestCanonicalRoute:
    def test_matches_gram_route(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3):
            for _ in range(300):
                V = random_physical_cov(rng, 2 * n)
                result = realignment_norm(V)
                norm, spectrum = gram_route(V)
                assert abs(result.norm / norm - 1.0) < 1e-10
                assert np.max(np.abs(np.array(result.spectrum.nus) / spectrum.nus - 1.0)) < 1e-12
                assert abs(result.spectrum.a0 / spectrum.a0 - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pure_products_are_undetected(self, n):
        # local symplectics on vacuum: every canonical correlation is exactly 0
        rng = np.random.default_rng(n)
        for _ in range(500):
            S = np.zeros((4 * n, 4 * n))
            S[:2 * n, :2 * n] = random_symplectic(rng, n)
            S[2 * n:, 2 * n:] = random_symplectic(rng, n)
            code, record = raw_eval(S @ S.T / 4)
            assert code == EXIT_OK
            assert record["verdict"] == "undetected"
            assert abs(record["norm"] - 1.0) <= 1e-12

    def test_weak_tmsv_is_detected(self):
        r = 1e-8
        code, record = raw_eval(rotated_tmsv(r))
        assert code == EXIT_OK and record["verdict"] == "entangled"
        assert abs(record["norm"] - math.exp(2 * r)) <= 1e-14

    @pytest.mark.parametrize("r", [3.0, 4.0, 5.0])
    def test_rotated_strong_tmsv(self, r):
        rng = np.random.default_rng(int(r))
        for _ in range(20):
            code, record = raw_eval(rotated_tmsv(r, rng.uniform(0.0, 2 * math.pi, 2)))
            assert code == EXIT_OK
            assert abs(record["norm"] / math.exp(2 * r) - 1.0) <= 1e-6

    @pytest.mark.parametrize("r", [3.0, 4.0, 5.0])
    def test_rotated_strong_tmsv_against_80_digits(self, r):
        # rounding grows as 1 / (1 - s) = 1 / (1 - tanh 2r) ~ e^{4r} / 2
        rng = np.random.default_rng(int(r))
        for _ in range(5):
            V = rotated_tmsv(r, rng.uniform(0.0, 2 * math.pi, 2))
            exact = canonical_norm_80_digits(V)
            error = abs(realignment_norm(CovarianceMatrix(V)).norm / exact - 1)
            assert error <= 10 * 2.0**-53 / (1 - math.tanh(2 * r))

    @pytest.mark.parametrize("r", [10.5, 11.5])
    def test_singular_limit_in_rounding_is_refused(self, r):
        # a - c is at most one ulp of a: s = 1 lies within the rounding error.
        # A rotated input can also fail the raw physicality test (exit 2),
        # whose absolute tolerance is below the eigen-solver error at this
        # scale; no input is evaluated, and the library refuses it as eval does
        assert raw_eval(rotated_tmsv(r))[0] == EXIT_NUMERIC
        rng = np.random.default_rng(int(r))
        for _ in range(20):
            V = rotated_tmsv(r, rng.uniform(0.0, 2 * math.pi, 2))
            code = raw_eval(V)[0]
            assert code in (EXIT_INVALID, EXIT_NUMERIC)
            refusal = InvalidArgumentError if code == EXIT_INVALID else SingularLimitError
            with pytest.raises(refusal):
                realignment_norm(CovarianceMatrix(V))

    def test_refusals(self):
        with pytest.raises(InvalidArgumentError, match="even"):
            realignment_norm(CovarianceMatrix(np.eye(6) / 4))
        with pytest.raises(InvalidArgumentError, match="physicality"):
            realignment_norm(CovarianceMatrix(np.diag([0.25, -0.25, 0.25, 0.25])))
        # a0 = (0.25 / 1e60)^6 underflows: the norm (0.5 / 1e30)^6 comes without a spectrum
        result = realignment_norm(CovarianceMatrix(np.eye(12) * 1e60))
        assert result.spectrum is None and result.norm == pytest.approx(2.0**-6 * 1e-180, rel=1e-13)

    @pytest.mark.parametrize("x", [1.0, 1e100, 1.5e154, 1e158])
    def test_refusal_bound_at_every_scale(self, x):
        # the allowance is taken on the equilibrated blocks, whose diagonal is
        # in [1/2, 2) at every scale: past ||V_A||_F = 1.34e154 it stays finite
        V = tmsv_params(0.3).covariance().matrix
        norm = realignment_norm(CovarianceMatrix(x * V)).norm
        assert abs(norm * x / realignment_norm(CovarianceMatrix(V)).norm - 1.0) <= 1e-13
        code, record = raw_eval(x * np.eye(4))
        standard2 = {"family": "standard2", "a": x, "b": x, "c1": 0.0, "c2": 0.0}
        reference = json.loads(eval_doc(standard2, "realignment_norm")[1])
        assert code == EXIT_OK
        assert (record["nus"], record["verdict"]) == (reference["nus"], reference["verdict"])
        assert record["norm"] == pytest.approx(reference["norm"], rel=1e-13)
        assert record["a0"] == pytest.approx(reference["a0"], rel=1e-13, abs=1e-320)

    @pytest.mark.parametrize("V", [1e170 * tmsv_params(0.3).covariance().matrix,
                                   1.7e308 * np.eye(4)], ids=["tmsv_1e170", "identity_1.7e308"])
    def test_norm_error_takes_in_the_rounding_of_g(self, V):
        # at |ln g| of about 390 and 710 the logarithms and exp in g round
        # further than the Cholesky and SVD terms allow: norm - normError
        # still lies below the exact norm of the stored entries
        result = realignment_norm(CovarianceMatrix(V))
        exact = exact_standard_form_norm(V[0, 0], V[2, 2], (V[0, 2], V[1, 3]))
        assert mpmath.mpf(result.norm) - mpmath.mpf(result.norm_error) <= exact

    def test_blocks_past_the_float_range(self):
        # ||V_A||_F of 1.7e308 I2 overflows: the allowance is taken on the
        # rescaled blocks, so the product state is not refused as singular, and
        # no overflow warning escapes.  Its a0 = (4 * 1.7e308)^-2 underflows
        result = realignment_norm(CovarianceMatrix(1.7e308 * np.eye(4)))
        assert result.norm == pytest.approx(1.4705882352941e-309, rel=1e-12)
        assert result.spectrum is None and result.verdict == "undetected"
        # a correlated state at that scale against its closed form:
        # canonical correlations 1/2, norm 1 / (4 (a - c))
        s = TwoModeStandardForm(1.7e308, 1.7e308, 0.85e308, -0.85e308)
        raw = realignment_norm(s.covariance())
        assert raw.norm == pytest.approx(realignment_norm(s).norm, rel=1e-12)
        assert raw.norm == pytest.approx(1.0 / (4 * 0.85e308), rel=1e-12)

    @pytest.mark.parametrize("zeta", [8.5, 10.0, 200.0, 300.0, 354.0])
    def test_squeezed_product_answered_without_warning(self, zeta):
        # a pure product with one mode squeezed by zeta: kappa_A = e^{4 zeta},
        # but the equilibrated blocks are diagonal with entries in [1/2, 2), so
        # s = 0 lies far outside the allowance.  At zeta = 354 the entry
        # e^{-2 zeta} / 4 is subnormal
        V = CovarianceMatrix(np.diag([math.exp(2 * zeta) / 4, math.exp(-2 * zeta) / 4,
                                      0.25, 0.25]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = realignment_norm(V)
            code, out, _err = eval_doc(state_descriptor(V), "realignment_norm")
        assert abs(result.norm - 1.0) <= 4 * 2.0**-52 and result.verdict == "undetected"
        record = json.loads(out)
        assert code == EXIT_OK
        assert (record["norm"], record["verdict"]) == (result.norm, "undetected")

    def test_cholesky_failure_is_numeric(self, monkeypatch):
        # a V that passes the physicality test with a local block that is not
        # positive definite in floating point fails as witness01 and swap do,
        # with exit 3.  Which literal matrix does that depends on eigen-solver
        # rounding, so a double stands in for the factorization
        def cholesky(_blocks):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        V = CovarianceMatrix(np.eye(4) / 4)
        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        with pytest.raises(NumericDomainError, match="not positive definite"):
            realignment_norm(V)
        code, out, err = eval_doc(state_descriptor(V), "realignment_norm")
        assert (code, out) == (EXIT_NUMERIC, "") and "NumericDomainError" in err

    def test_norm_below_the_float_range_is_refused(self):
        # a 2+2 product at 1e200: the norm (0.5 / 1e100)^4 underflows along with a0
        with pytest.raises(SingularLimitError, match="float range"):
            realignment_norm(CovarianceMatrix(1e200 * np.eye(8)))
        code, _out, _err = eval_doc(state_descriptor(CovarianceMatrix(1e200 * np.eye(8))),
                                    "realignment_norm")
        assert code == EXIT_NUMERIC

    @pytest.mark.parametrize("zeta", [3.0, -3.0, 5.0])
    def test_strong_local_squeezing(self, zeta):
        # a TMSV, phase-rotated on each side by a seeded angle, then squeezed
        # by zeta on both sides: kappa_A = e^{4 |zeta|}, about 1.6e5 at zeta = 3.
        # Local symplectics leave the norm e^{2r}
        rng = np.random.default_rng(int(10 * zeta) % 97)
        for r in (1e-4, 0.05, 0.5, 2.0):
            for angles in [(0.0, 0.0), *rng.uniform(0.0, 2 * math.pi, (10, 2))]:
                V = local_squeezing(rotated_tmsv(r, angles), zeta)
                result = realignment_norm(CovarianceMatrix(V))
                assert abs(result.norm / math.exp(2 * r) - 1.0) <= 1e-11, (zeta, r, angles)
                assert result.verdict == "entangled"

    @pytest.mark.parametrize("zeta", [3.0, 5.0, 8.0])
    def test_squeezed_vacuum_products_are_undetected(self, zeta):
        # 1+1 squeezed along x on both sides, and 2+2 along x and along p on
        # each side
        squeezed = np.diag(np.exp(np.array([2.0, -2.0, -2.0, 2.0] * 2) * zeta) / 4)
        for V in (local_squeezing(np.eye(4) / 4, zeta), squeezed):
            assert realignment_norm(CovarianceMatrix(V)).verdict == "undetected"
            code, record = raw_eval(V)
            assert code == EXIT_OK and record["verdict"] == "undetected"
            assert abs(record["norm"] - 1.0) <= 4 * 2.0**-52

    @pytest.mark.parametrize("zeta", [5.0, 8.0])
    def test_rotated_squeezed_vacuum_products_are_never_entangled(self, zeta):
        # each mode squeezed along a seeded axis: the local blocks have kappa up
        # to about e^{4 zeta}, which the equilibration does not remove, and the
        # norm 1 is read "undetected" within normError, or refused
        rng = np.random.default_rng(int(zeta))
        for angles in rng.uniform(0.0, math.pi, (20, 2)):
            code, record = raw_eval(rotated(local_squeezing(np.eye(4) / 4, zeta), angles))
            assert code in (EXIT_OK, EXIT_INVALID, EXIT_NUMERIC)
            if code == EXIT_OK:
                assert record["verdict"] == "undetected", record
                assert abs(record["norm"] - 1.0) <= record["normError"]


class TestClosedForms:
    def test_two_mode_values(self):
        assert abs(realignment_norm(squeezed_thermal_params(0, 0)).norm - 1.0) < 1e-15
        s = TwoModeStandardForm(0.5, 0.5, 0.3, -0.3)
        assert abs(realignment_norm(s).norm - 1.25) < 1e-15
        for r in (0.2, 0.6, 1.0):
            assert abs(realignment_norm(tmsv_params(r)).norm - math.exp(2 * r)) < 1e-12

    def test_two_mode_witness_identity(self, rng):
        for _ in range(100):
            s = random_standard_form(rng, margin=1e-3)
            assert optimal_witness(s).value == 1.0 - realignment_norm(s).norm

    def test_two_mode_singular_limit(self):
        # |c1| = sqrt(ab): the standard form is refused when built, and its
        # reduction diverges
        with pytest.raises(InvalidArgumentError, match="physicality"):
            TwoModeStandardForm(0.5, 0.5, 0.5, 0.0)
        with pytest.raises(SingularLimitError):
            realignment_result(*standard_form_gaps(0.5, 0.5, (0.5, 0.0)))

    def test_two_two_values(self):
        assert abs(standard_form_norm(0.5, 0.5, (0.0,) * 4) - 0.25) < 1e-15
        assert abs(standard_form_norm(1.0, 1.0, (0.78,) * 4) - 1.2913223140495869) < 1e-12

    def test_two_two_detection_boundary(self):
        # |c| = sqrt(ab) - 1/4 sits exactly on norm 1
        for a, b in [(1.0, 1.0), (0.8, 1.4)]:
            c = math.sqrt(a * b) - 0.25
            assert abs(standard_form_norm(a, b, (c,) * 4) - 1.0) < 1e-12


def exact_standard_form_norm(a, b, couplings):
    """prod_i 1 / (2 sqrt(sqrt(ab) - |c_i|)) of the float inputs, in 60 digits."""
    with mpmath.workdps(60):
        sab = mpmath.sqrt(mpmath.mpf(a) * mpmath.mpf(b))
        return mpmath.fprod(1 / (2 * mpmath.sqrt(sab - abs(mpmath.mpf(c)))) for c in couplings)


def exact_two_two_threshold(a, b):
    """sqrt(ab - sqrt(a^2 + b^2 - 1/16)/4) of the float inputs, in 60 digits."""
    with mpmath.workdps(60):
        A, B = mpmath.mpf(a), mpmath.mpf(b)
        return mpmath.sqrt(A * B - mpmath.sqrt(A * A + B * B - mpmath.mpf(1) / 16) / 4)


def step_ulps(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def eval_doc(doc, quantity):
    """Exit code, stdout and stderr of ``eval`` on one descriptor."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["eval", "--state", json.dumps(doc), "--quantity", quantity])
    return code, out.getvalue(), err.getvalue()


class TestStandardFormNorm:
    def test_near_edge_classify_matches_exact_norm(self):
        # a, b log-uniform on [1e2, 1e6] and |c| within 1e-6 of the detection
        # edge sqrt(ab) - 1/4: the verdict of every physical point whose exact
        # norm is clear of 1 must be the exact one
        rng = np.random.default_rng(14)
        checked = 0
        for _ in range(3000):
            a, b = 10.0 ** rng.uniform(2.0, 6.0, size=2)
            c = float(math.sqrt(a * b) - 0.25 + rng.uniform(-1e-6, 1e-6)) * rng.choice([-1.0, 1.0])
            with mpmath.workdps(60):
                A, B, C = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(abs(c))
                threshold = mpmath.sqrt(A * B - mpmath.sqrt(A * A + B * B - mpmath.mpf(1) / 16) / 4)
                if C > threshold * (1 - mpmath.mpf(1e-12)):
                    continue
            exact = exact_standard_form_norm(a, b, (c,) * 4)
            if abs(exact - 1) <= 1e-9:
                continue
            checked += 1
            expected = "bound_entangled" if exact > 1 + DETECTION_TOL else "undetected"
            assert classify_two_two(a, b, c).verdict == expected, (a, b, c)
        assert checked > 500

    def test_cancelling_example_is_detected(self):
        a, b, c = 431801.85797698976, 255472.00958690618, 332134.19326185534
        assert float(exact_standard_form_norm(a, b, (c,) * 4)) == pytest.approx(1.0000014594, abs=1e-10)
        code, out, _ = eval_doc({"family": "two_two", "a": a, "b": b, "c": c}, "classify")
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["verdict"] == "bound_entangled"
        assert abs(record["norm"] - 1.0000014594) < 1e-10

    @pytest.mark.parametrize("a", [1e2, 1e4, 1e6])
    def test_two_two_at_threshold_within_4u(self, a):
        c = family_threshold(a, a)
        exact = exact_standard_form_norm(a, a, (c,) * 4)
        assert abs(standard_form_norm(a, a, (c,) * 4) / exact - 1) <= 4 * 2.0**-53

    def test_two_mode_where_ab_overflows(self):
        # a0 = 6.25e-402 underflows: the library gives the norm without a spectrum
        result = realignment_norm(TwoModeStandardForm(1e200, 1e200, 0.0, 0.0))
        assert (result.norm, result.spectrum) == (2.5e-201, None)
        doc = {"family": "standard2", "a": 1e200, "b": 1e200, "c1": 0.0, "c2": 0.0}
        code, out, _ = eval_doc(doc, "optimal_witness")
        assert code == EXIT_OK and json.loads(out)["value"] == 1.0

    def test_broadcasts_and_marks_refusals_nan(self):
        c = np.array([0.0, 0.75, 1.0, 2.0, 0.0])
        a = np.array([1.0, 1.0, 1.0, 1.0, 1e200])
        norm = standard_form_norm(a, a, (c, c))
        assert norm[:2].tolist() == [0.25, 1.0] and np.isnan(norm[2:4]).all()
        assert norm[4] == 2.5e-201
        assert np.isnan(standard_form_norm(1e200, 1e200, (0.0,) * 4))  # underflows


    def test_cancelling_point_above_two_ulps_of_sqrt_ab_is_detected(self):
        # sqrt(ab) - |c| is 0.2499999997 at sqrt(ab) = 3.4e6: a rounded sqrt(ab)
        # is off by up to 2.3e-10 there, which read the norm as 1.0
        a, b, c = 1885451.2094971663, 6207141.117814967, 3421002.7795373644
        exact = exact_standard_form_norm(a, b, (c,) * 4)
        code, out, _ = eval_doc({"family": "two_two", "a": a, "b": b, "c": c}, "classify")
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["verdict"] == "bound_entangled"
        assert abs(record["norm"] / exact - 1) <= 1e-14

    def test_large_scale_audit_against_mpmath(self):
        # a, b log-uniform on [1e6, 1e12] and |c| = sqrt(ab) - U(1/8, 3/8):
        # sqrt(ab) - |c| cancels 20 to 40 bits of sqrt(ab).  Verdicts are
        # compared where |c| is clear of the threshold, which is rounded, by
        # 1e-15 relative, and the norm clear of 1 + DETECTION_TOL by 1e-12.
        rng = np.random.default_rng(25)
        worst, verdicts = 0.0, 0
        for _ in range(3000):
            a, b = (float(x) for x in 10.0 ** rng.uniform(6.0, 12.0, size=2))
            c = float(math.sqrt(a * b) - rng.uniform(0.125, 0.375)) * float(rng.choice([-1.0, 1.0]))
            exact = exact_standard_form_norm(a, b, (c,) * 4)
            worst = max(worst, abs(standard_form_norm(a, b, (c,) * 4) / exact - 1))
            threshold = exact_two_two_threshold(a, b)
            if abs(abs(c) / threshold - 1) <= 1e-15 or abs(exact / (1 + DETECTION_TOL) - 1) <= 1e-12:
                continue
            verdicts += 1
            if abs(c) > threshold:
                expected = "unphysical"
            else:
                expected = "bound_entangled" if exact > 1 + DETECTION_TOL else "undetected"
            assert classify_two_two(a, b, c).verdict == expected, (a, b, c)
        assert worst <= 1e-14
        assert verdicts > 2990

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        a=st.one_of(st.sampled_from([0.25, 1.0, 1e154, 1e300]),
                    st.floats(-0.6, 300.0).map(lambda e: max(0.25, 10.0**e))),
        ratio=st.one_of(st.just(1.0), st.floats(-300.0, 300.0).map(lambda e: 10.0**e)),
        near=st.sampled_from(["sqrt_ab", "threshold", "fraction"]),
        ulps=st.integers(-4, 4),
        frac=st.floats(0.0, 1.0),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_every_scale_against_mpmath(self, a, ratio, near, ulps, frac, sign):
        # a, b from 1/4 to 1e300, with a = b (ratio 1), ab overflowing, and |c|
        # within a few ulps of sqrt(ab) or of the 2+2 threshold
        b = min(max(0.25, a * ratio), 1e300)
        with mpmath.workdps(60):
            sab = mpmath.sqrt(mpmath.mpf(a) * mpmath.mpf(b))
        if near == "sqrt_ab":
            c = step_ulps(float(sab), ulps)
        elif near == "threshold":
            c = step_ulps(float(exact_two_two_threshold(a, b)), ulps)
        else:
            c = frac * float(sab)
        c *= sign
        c2 = frac * c

        # one point of the array forms against the scalar forms, bit for bit
        verdicts, norms, thresholds = classify_two_two_array(np.array([a]), np.array([b]),
                                                             np.array([c]))
        try:
            result = classify_two_two(a, b, c)
        except (NumericDomainError, SingularLimitError):
            assert verdicts[0] == "invalid"
        else:
            assert (result.verdict, result.threshold) == (verdicts[0], thresholds[0])
            if result.norm is None:
                assert math.isnan(norms[0])
            else:
                assert result.norm == norms[0]
        norm = standard_form_norm(np.array([a]), np.array([b]), (np.array([c]), np.array([c2])))[0]
        scalar = standard_form_norm(a, b, (c, c2))
        assert scalar == norm or math.isnan(scalar) and math.isnan(norm)

        # every norm in the normal float range against 60 digits
        for couplings in ((c,) * 4, (c, c2)):
            value = float(standard_form_norm(a, b, couplings))
            if value >= sys.float_info.min and not math.isinf(value):
                exact = exact_standard_form_norm(a, b, couplings)
                assert abs(value / exact - 1) <= 1e-14, (a, b, couplings)


def assert_valid_spectrum(spectrum):
    """The invariants that every producer of a WilliamsonSpectrum keeps."""
    nus, a0 = spectrum.nus, spectrum.a0
    assert type(nus) is tuple and all(type(nu) is float for nu in nus), spectrum
    assert all(0.0 < nu < math.inf for nu in nus) and list(nus) == sorted(nus), spectrum
    assert type(a0) is float and 0.0 < a0 < math.inf, spectrum


class TestClosedGramSpectrum:
    def pipeline(self, V):
        spectrum = gram_route(V)[1]
        return np.array(spectrum.nus), spectrum.a0

    def test_matches_pipeline_standard2(self, rng):
        for _ in range(200):
            s = random_standard_form(rng)
            spectrum = standard_form_gram_spectrum(s.a, s.b, (s.c1, s.c2))
            nus, a0 = self.pipeline(s.covariance())
            assert np.max(np.abs(np.array(spectrum.nus) / nus - 1.0)) < 1e-12
            assert abs(spectrum.a0 / a0 - 1.0) < 1e-12
            assert abs(norm_from_spectrum(spectrum) / realignment_norm(s).norm - 1.0) < 1e-13

    def test_matches_pipeline_two_two(self, rng):
        for _ in range(200):
            a, b = rng.uniform(0.25, 2.0, size=2)
            c = rng.uniform(-1.0, 1.0) * family_threshold(a, b)
            spectrum = standard_form_gram_spectrum(a, b, (c,) * 4)
            nus, a0 = self.pipeline(two_two_family(a, b, c))
            assert np.max(np.abs(np.array(spectrum.nus) / nus - 1.0)) < 1e-12
            assert abs(spectrum.a0 / a0 - 1.0) < 1e-12
            assert abs(norm_from_spectrum(spectrum) / standard_form_norm(a, b, (c,) * 4) - 1.0) < 1e-13

    def test_products_are_exactly_one_quarter(self, rng):
        for a, b in rng.uniform(0.25, 1e6, size=(50, 2)):
            spectrum = standard_form_gram_spectrum(a, b, (0.0, -0.0))
            assert spectrum.nus == (0.25, 0.25)

    def test_refusals(self):
        with pytest.raises(SingularLimitError):
            standard_form_gram_spectrum(1.0, 1.0, (1.0, 0.0))
        # where a0 leaves the float range there is no spectrum.  ab = 1e400
        # overflows, sqrt(ab) = 1e200 does not, a0 = 6.25e-402 does
        assert standard_form_gram_spectrum(1e200, 1e200, (0.0, 0.0)) is None
        assert standard_form_gram_spectrum(1e81, 1e81, (0.0,) * 4) is None
        # sqrt(ab) = 1e-100, below the vacuum bound: a0 = (0.25 / 1e-100)^4 overflows
        assert standard_form_gram_spectrum(1e-100, 1e-100, (0.0,) * 4) is None

    def test_spectrum_is_what_the_checking_constructor_builds(self, rng):
        # the record checks nothing: every producer keeps its invariants
        for _ in range(100):
            s = random_standard_form(rng)
            a, b = rng.uniform(0.25, 2.0, size=2)
            c = rng.uniform(-1.0, 1.0) * family_threshold(a, b)
            for spectrum in (standard_form_gram_spectrum(s.a, s.b, (s.c1, s.c2)),
                             standard_form_gram_spectrum(a, b, (c,) * 4),
                             realignment_norm(s.covariance()).spectrum,
                             realignment_norm(random_physical_cov(rng, 4)).spectrum):
                assert_valid_spectrum(spectrum)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        route=st.sampled_from(["standard2", "two_two", "raw_covariance"]),
        nus=st.tuples(*[st.one_of(st.just(0.25), st.floats(0.25, 3.0))] * 2),
        r=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
        theta=st.one_of(st.just(0.0), st.floats(0.0, 2 * math.pi)),
        u=st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0)),
        local=st.tuples(*[st.tuples(st.floats(-1.0, 1.0), st.tuples(st.floats(0.0, 3.0),
                                                                   st.floats(0.0, 3.0)))] * 2),
    )
    def test_every_route_returns_a_valid_spectrum(self, route, nus, r, theta, u, local):
        # pure where both nus are 1/4 (and |u| = 1), a product where r = 0 or
        # u = 0 (raw: r = theta = 0); spectra as eval gets them, from the
        # family evaluators.  A standard2 state scaled toward its marginals
        # (|u|) with noise on B stays physical: V + iJ/4 >= 0 is convex
        if route == "standard2":
            doc = state_descriptor(squeezed_thermal_params(nus[0] - 0.25, r))
            doc.update(b=doc["b"] + (nus[1] - 0.25), c1=doc["c1"] * abs(u),
                       c2=doc["c2"] * abs(u))
        elif route == "two_two":
            a, b = nus
            doc = {"family": "two_two", "a": a, "b": b, "c": u * family_threshold(a, b)}
        else:
            doc = state_descriptor(CovarianceMatrix(two_mode_cov(nus, theta, r, local)))
        state = parse_state_descriptor(doc)
        family = family_of(state)
        spectra = [realignment_result(*family.reduction(state)).spectrum]
        if "classify" in family.quantities:
            spectra.append(family.quantities["classify"](state).spectrum)
        for spectrum in spectra:
            assert_valid_spectrum(spectrum)

    def test_overflowing_ab_takes_sqrt_a_sqrt_b(self):
        # ab = 1e310 overflows; sqrt(ab) is taken as in standard_form_norm,
        # and a0 = 1/(16 ab) = 6.25e-312 is subnormal but not 0
        spectrum = standard_form_gram_spectrum(1e300, 1e10, (0.0, 0.0))
        assert spectrum.nus == (0.25, 0.25) and spectrum.a0 == 6.25e-312
        sab = math.sqrt(1e300) * math.sqrt(1e10)
        c = sab / 2
        spectrum = standard_form_gram_spectrum(1e300, 1e10, (c, -c))
        assert spectrum.nus == pytest.approx((0.25 / math.sqrt(0.75),) * 2, rel=1e-15)


class TestClassifyTwoTwo:
    def test_undetected_point(self):
        res = classify_two_two(1.0, 1.0, 0.5)
        assert res.verdict == "undetected"
        assert abs(res.norm - 0.25) < 1e-12

    def test_bound_entangled_point(self):
        res = classify_two_two(1.0, 1.0, 0.78)
        assert res.verdict == "bound_entangled"
        assert abs(res.norm - 1.2913223140495869) < 1e-10

    def test_unphysical_point(self):
        res = classify_two_two(1.0, 1.0, 0.82)
        assert res.verdict == "unphysical"
        assert res.norm is None

    def test_nan_coupling_is_invalid(self):
        # a NaN c is invalid input, as a NaN a or b is, not a singular limit:
        # the scalar gate refuses it for classify and realignment_norm alike,
        # the array form reads it invalid, and an infinite c stays unphysical
        for evaluate in (lambda s: classify_two_two(s.a, s.b, s.c),
                         lambda s: evaluate_quantity(s, "realignment_norm")):
            with pytest.raises(InvalidArgumentError, match="nan"):
                evaluate(TwoTwoFamilyParams(1.0, 1.0, math.nan))
        verdict = classify_two_two_array(1.0, 1.0, np.array([math.nan, math.inf, 0.78]))[0]
        assert verdict.tolist() == ["invalid", "unphysical", "bound_entangled"]
        assert classify_two_two(1.0, 1.0, math.inf).verdict == "unphysical"

    def test_spectrum_attached_at_physical_points_only(self):
        # the spectrum is the one realignment_norm reports, and that of the
        # generic pipeline; past the threshold 0.807 there is no norm and no
        # spectrum
        res = classify_two_two(1.0, 1.0, 0.78)
        assert res.spectrum == standard_form_gram_spectrum(1.0, 1.0, (0.78,) * 4)
        generic = realignment_norm(two_two_family(1.0, 1.0, 0.78)).spectrum
        assert res.spectrum.nus == pytest.approx(generic.nus, rel=1e-12)
        assert res.spectrum.a0 == pytest.approx(generic.a0, rel=1e-12)
        res = classify_two_two(1.0, 1.0, 0.9)
        assert (res.verdict, res.norm, res.spectrum) == ("unphysical", None, None)

    def test_window_edges(self):
        thr = family_threshold(1.0, 1.0)
        assert classify_two_two(1.0, 1.0, 0.75).verdict == "undetected"
        assert classify_two_two(1.0, 1.0, 0.7501).verdict == "bound_entangled"
        assert classify_two_two(1.0, 1.0, thr).verdict == "bound_entangled"
        assert classify_two_two(1.0, 1.0, math.nextafter(thr, 1.0)).verdict == "unphysical"

    def test_refusals_read_the_array_form_once(self, monkeypatch):
        # the scalar verdict and refusal follow from one threshold and, at a
        # physical point only, one norm, each the array form at one point:
        # the threshold is NaN at (1e200, 1e200), where ab overflows, and
        # the norm at (1e20, 1e20, threshold), where |c| = sqrt(ab) in floats
        from cventangle import realignment

        thr = family_threshold(1e20, 1e20)
        calls = []

        def counted(name):
            original = getattr(realignment, name)

            def wrapper(*args):
                calls.append(name)
                return original(*args)

            return wrapper

        def fail(*_args):
            raise AssertionError("classify_two_two ran the whole array form")

        for name in ("family_threshold_array", "standard_form_gaps"):
            monkeypatch.setattr(realignment, name, counted(name))
        monkeypatch.setattr(realignment, "classify_two_two_array", fail)
        with pytest.raises(SingularLimitError):
            classify_two_two(1e20, 1e20, thr)
        assert calls == ["family_threshold_array", "standard_form_gaps"]
        calls.clear()
        with pytest.raises(NumericDomainError):
            classify_two_two(1e200, 1e200, 0.0)
        assert calls == ["family_threshold_array"]
        calls.clear()
        with pytest.raises(InvalidArgumentError):
            classify_two_two(0.2, 1.0, 0.0)
        assert calls == []
        assert classify_two_two(1.0, 1.0, 0.82).verdict == "unphysical"
        assert calls == ["family_threshold_array"]
        calls.clear()
        assert classify_two_two(1.0, 1.0, 0.78).verdict == "bound_entangled"
        assert calls == ["family_threshold_array", "standard_form_gaps"]

    def test_scalar_closed_forms_call_no_np_where(self, monkeypatch):
        # on numbers, a 0-d np.where costs more than the closed form it selects from
        def forbidden(*_args, **_kwargs):
            raise AssertionError("np.where ran on a scalar closed form")

        monkeypatch.setattr(np, "where", forbidden)
        assert classify_two_two(1.0, 1.0, 0.78).verdict == "bound_entangled"
        assert classify_two_two(1.0, 1.0, 0.9).norm is None
        with pytest.raises(NumericDomainError):
            classify_two_two(1e200, 1e200, 0.0)
        assert witness_photon_added_closed(1.0, 1.0) < 0.0 < swap_photon_added_closed(1.0, 1.0)
        with pytest.raises(NumericDomainError):
            witness_photon_added_closed(1.0, 200.0)

    def test_detected_points_are_ppt(self, rng):
        for _ in range(40):
            a = rng.uniform(0.3, 1.8)
            b = rng.uniform(0.3, 1.8)
            c = rng.uniform(0.0, family_threshold(a, b))
            res = classify_two_two(a, b, c)
            if res.verdict == "bound_entangled":
                assert is_ppt(two_two_family(a, b, c), modes_b=(2, 3))


    def test_partial_transpose_is_a_local_rotation(self, rng):
        # flipping p3, p4 equals conjugating by D = diag(1, 1, -1, -1, 1, 1, -1, -1),
        # a pi rotation of modes 2 and 4, bit for bit, unphysical c included:
        # so V^{T_B} is physical exactly when V is
        D = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        for _ in range(1000):
            a, b = rng.uniform(0.25, 3.0, 2)
            c = rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 2.0) * family_threshold(a, b)
            V = two_two_family(a, b, c)
            assert np.array_equal(partial_transpose(V, (2, 3)).matrix,
                                  D[:, None] * V.matrix * D[None, :])


@st.composite
def standard2_near_unit_norm(draw):
    """A standard2 descriptor whose realigned norm is within a few
    DETECTION_TOL of 1: opposite couplings of magnitude near
    sqrt(ab) - 1/(4 (1 + DETECTION_TOL)), each stepped a few ulps."""
    a = draw(st.floats(0.3, 4.0))
    b = draw(st.one_of(st.just(a), st.floats(0.8, 1.25).map(lambda ratio: a * ratio)))
    c = math.sqrt(a * b) - 0.25 / (1.0 + DETECTION_TOL * (1.0 + draw(st.floats(-2.0, 2.0))))
    c1, c2 = (step_ulps(c, draw(st.integers(-8, 8))) for _ in "12")
    sign = draw(st.sampled_from([-1.0, 1.0]))
    return {"family": "standard2", "a": a, "b": b, "c1": sign * c1, "c2": -sign * c2}


class TestVerdictEquivalence:
    @settings(max_examples=300, deadline=None, database=None)
    @given(doc=standard2_near_unit_norm())
    @example(doc=STANDARD2_EDGE)
    def test_norm_verdict_is_the_optimal_witness_verdict(self, doc):
        # W_opt = 1 - ||R||_1 (the paper's equivalence), read by one rule: the
        # witness value is 1 - norm to the bit, and the two verdicts agree
        try:
            state = parse_state_descriptor(doc)
        except InvalidArgumentError:  # unphysical: eval refuses both quantities alike
            return
        witness = evaluate_quantity(state, "optimal_witness")
        realigned = evaluate_quantity(state, "realignment_norm")
        assert witness["value"] == 1.0 - realigned["norm"], doc
        assert witness["entangled"] == (realigned["verdict"] == "entangled"), doc

    def test_witness_sign_matches_norm_sign(self, rng):
        for _ in range(200):
            s = random_standard_form(rng, margin=1e-3)
            value = optimal_witness(s).value
            norm = realignment_norm(s.covariance()).norm
            if abs(value) > 1e-9:
                assert (value < 0) == (norm > 1.0)


@st.composite
def physical_standard_forms(draw):
    """A squeezed thermal pair (photon number n, squeezing r) with thermal
    noise added to b and both couplings scaled by u and a sign: pure where
    n = noise = 0 and u = 1, a product where r = 0 or u = 0, and
    sqrt(ab) -> |c_i| as r grows on pure draws (1 - s_i = 2 / (e^{4r} + 1)).
    Each step keeps V + iJ/4 >= 0, a convex condition."""
    n = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    r = draw(st.one_of(st.sampled_from([0.0, 3.0, 6.0]), st.floats(0.0, 6.0)))
    noise = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    u = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    s = squeezed_thermal_params(n, r)
    return TwoModeStandardForm(s.a, s.b + noise, sign * u * s.c1, sign * u * s.c2)


class TestOneRealignmentResult:
    @settings(max_examples=300, deadline=None, database=None)
    @given(s=physical_standard_forms())
    @example(s=tmsv_params(6.0))
    @example(s=TwoModeStandardForm(1000.0, 1000.0, 999.75 + 5e-11, -999.75 - 5e-11))
    def test_standard_form_contract(self, s):
        result = realignment_norm(s)
        # the eval record carries the library's bits
        record = evaluate_quantity(s, "realignment_norm")
        assert record["norm"] == result.norm and record["verdict"] == result.verdict
        assert (record["nus"], record["a0"]) == (list(result.spectrum.nus), result.spectrum.a0)
        # the paper's identity W_opt = 1 - ||R||_1, to the bit
        assert optimal_witness(s).value == 1.0 - result.norm
        # the raw route on the same covariance, within its error: the
        # allowance 4 k^2 u (kappa_A + kappa_B), kappa_X = 2 sqrt(2) for the
        # equilibrated M_X = x I2, moves each factor by about
        # allowance / (2 (1 - s_i)); normError adds allowance / 2 to that
        sab, gaps = s._gaps
        allowance = 4 * 2**2 * 2.0**-53 * 4 * math.sqrt(2)
        tol = sum(allowance / (2 * gap / sab) for gap in gaps) + 1e-13
        raw = realignment_norm(s.covariance())
        assert abs(raw.norm / result.norm - 1) <= tol, (s, raw.norm, result.norm)
        if abs(result.norm - (1 + DETECTION_TOL)) > 2 * tol * result.norm:
            assert raw.verdict == result.verdict, s

    @pytest.mark.parametrize("state", [TwoTwoFamilyParams(1.0, 1.0, 0.5), np.eye(4) / 4,
                                       "standard2", None])
    def test_other_arguments_are_refused(self, state):
        with pytest.raises(InvalidArgumentError, match="TwoModeStandardForm or a CovarianceMatrix"):
            realignment_norm(state)
