import math

import numpy as np
import pytest

from cventangle import (
    CovarianceMatrix,
    InvalidArgumentError,
    NumericDomainError,
    SingularLimitError,
    SpectralDomainError,
    WilliamsonSpectrum,
    classify_two_two,
    family_threshold,
    optimal_witness,
    realigned_gram_covariance,
    realignment_norm,
    realignment_norm_two_mode,
    realignment_norm_two_two,
    squeezed_thermal_params,
    symplectic_eigenvalues,
    tmsv_params,
    two_two_family,
)
from cventangle.realignment import norm_from_spectrum, standard_form_gram_spectrum
from conftest import is_ppt, partial_transpose, random_product_cov, random_standard_form


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

    def test_rejects_odd_split(self):
        with pytest.raises(InvalidArgumentError):
            realigned_gram_covariance(CovarianceMatrix(np.eye(6) / 4))

    def test_rejects_unphysical(self):
        with pytest.raises(InvalidArgumentError):
            realigned_gram_covariance(CovarianceMatrix(np.eye(4) / 8))


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
            assert abs(generic - realignment_norm_two_mode(s)) < 1e-10

    def test_closed_form_agreement_two_two(self, rng):
        for _ in range(200):
            a = rng.uniform(0.3, 2.0)
            b = rng.uniform(0.3, 2.0)
            c = rng.uniform(-0.999, 0.999) * family_threshold(a, b)
            generic = realignment_norm(two_two_family(a, b, c)).norm
            assert abs(generic - realignment_norm_two_two(a, b, c)) < 1e-10

    def test_separable_product_guard(self, rng):
        for _ in range(100):
            assert realignment_norm(random_product_cov(rng)).norm <= 1.0 + 1e-10

    def test_product_norm_is_root_purity(self, rng):
        # product states: norm = sqrt(purity_A * purity_B); the Gram operator
        # is rank one there (nu exactly 1/4), so allow sqrt(eps) solver noise
        for _ in range(30):
            cov = random_product_cov(rng)
            pa = 0.25 / math.sqrt(np.linalg.det(cov.matrix[:2, :2]))
            pb = 0.25 / math.sqrt(np.linalg.det(cov.matrix[2:, 2:]))
            assert abs(realignment_norm(cov).norm - math.sqrt(pa * pb)) < 3e-8


class TestClosedForms:
    def test_two_mode_values(self):
        from cventangle import TwoModeStandardForm

        assert abs(realignment_norm_two_mode(squeezed_thermal_params(0, 0)) - 1.0) < 1e-15
        s = TwoModeStandardForm(0.5, 0.5, 0.3, -0.3)
        assert abs(realignment_norm_two_mode(s) - 1.25) < 1e-15
        for r in (0.2, 0.6, 1.0):
            assert abs(realignment_norm_two_mode(tmsv_params(r)) - math.exp(2 * r)) < 1e-12

    def test_two_mode_witness_identity(self, rng):
        for _ in range(100):
            s = random_standard_form(rng, margin=1e-3)
            assert abs(realignment_norm_two_mode(s) - (1.0 - optimal_witness(s).value)) < 1e-12

    def test_two_mode_singular_limit(self):
        class Fake:
            a, b, c1, c2 = 0.5, 0.5, 0.5, 0.0

        with pytest.raises(SingularLimitError):
            realignment_norm_two_mode(Fake())

    def test_two_two_values(self):
        assert abs(realignment_norm_two_two(0.5, 0.5, 0.0) - 0.25) < 1e-15
        assert abs(realignment_norm_two_two(1.0, 1.0, 0.78) - 1.2913223140495869) < 1e-12

    def test_two_two_detection_boundary(self):
        # |c| = sqrt(ab) - 1/4 sits exactly on norm 1
        for a, b in [(1.0, 1.0), (0.8, 1.4)]:
            c = math.sqrt(a * b) - 0.25
            assert abs(realignment_norm_two_two(a, b, c) - 1.0) < 1e-12


class TestClosedGramSpectrum:
    def pipeline(self, V):
        gram, a0 = realigned_gram_covariance(V)
        return np.array(symplectic_eigenvalues(gram).nus), a0

    def test_matches_pipeline_standard2(self, rng):
        for _ in range(200):
            s = random_standard_form(rng)
            spectrum = standard_form_gram_spectrum(s.a, s.b, (s.c1, s.c2))
            nus, a0 = self.pipeline(s.covariance())
            assert np.max(np.abs(np.array(spectrum.nus) / nus - 1.0)) < 1e-12
            assert abs(spectrum.a0 / a0 - 1.0) < 1e-12
            assert abs(norm_from_spectrum(spectrum) / realignment_norm_two_mode(s) - 1.0) < 1e-13

    def test_matches_pipeline_two_two(self, rng):
        for _ in range(200):
            a, b = rng.uniform(0.25, 2.0, size=2)
            c = rng.uniform(-1.0, 1.0) * family_threshold(a, b)
            spectrum = standard_form_gram_spectrum(a, b, (c,) * 4)
            nus, a0 = self.pipeline(two_two_family(a, b, c))
            assert np.max(np.abs(np.array(spectrum.nus) / nus - 1.0)) < 1e-12
            assert abs(spectrum.a0 / a0 - 1.0) < 1e-12
            assert abs(norm_from_spectrum(spectrum) / realignment_norm_two_two(a, b, c) - 1.0) < 1e-13

    def test_products_are_exactly_one_quarter(self, rng):
        for a, b in rng.uniform(0.25, 1e6, size=(50, 2)):
            spectrum = standard_form_gram_spectrum(a, b, (0.0, -0.0))
            assert spectrum.nus == (0.25, 0.25)

    def test_refusals(self):
        with pytest.raises(SingularLimitError):
            standard_form_gram_spectrum(1.0, 1.0, (1.0, 0.0))
        with pytest.raises(NumericDomainError, match="float range"):
            standard_form_gram_spectrum(1e200, 1e200, (0.0, 0.0))
        with pytest.raises(NumericDomainError, match="underflows"):
            standard_form_gram_spectrum(1e81, 1e81, (0.0,) * 4)


class TestSpectrumGuard:
    def test_clamps_tiny_excursion(self):
        norm = norm_from_spectrum(WilliamsonSpectrum(nus=(0.25 - 2e-10, 0.3), a0=1.0))
        assert math.isfinite(norm)

    def test_rejects_invalid_gram_spectrum(self):
        with pytest.raises(SpectralDomainError):
            norm_from_spectrum(WilliamsonSpectrum(nus=(0.2, 0.3), a0=1.0))


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

    def test_window_edges(self):
        thr = family_threshold(1.0, 1.0)
        assert classify_two_two(1.0, 1.0, 0.75).verdict == "undetected"
        assert classify_two_two(1.0, 1.0, 0.7501).verdict == "bound_entangled"
        assert classify_two_two(1.0, 1.0, thr).verdict == "bound_entangled"
        assert classify_two_two(1.0, 1.0, math.nextafter(thr, 1.0)).verdict == "unphysical"

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


class TestVerdictEquivalence:
    def test_witness_sign_matches_norm_sign(self, rng):
        for _ in range(200):
            s = random_standard_form(rng, margin=1e-3)
            value = optimal_witness(s).value
            norm = realignment_norm(s.covariance()).norm
            if abs(value) > 1e-9:
                assert (value < 0) == (norm > 1.0)
