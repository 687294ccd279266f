import json

import numpy as np
import pytest
from scipy.linalg import sqrtm

from cventangle import (
    CovarianceMatrix,
    InvalidArgumentError,
    SingularInputError,
    family_threshold,
    is_physical,
    parse_state_descriptor,
    squeezed_thermal_params,
    state_descriptor,
    symplectic_eigenvalues,
    symplectic_form,
    two_two_family,
)
from conftest import (is_ppt, partial_transpose, random_physical_cov, random_product_cov,
                      random_symplectic)


def hermitian_route_nus(V: np.ndarray) -> np.ndarray:
    """Independent oracle: positive eigenvalues of the Hermitian i sqrt(V) J sqrt(V)."""
    m = V.shape[0] // 2
    root = sqrtm(V).real
    H = 1j * root @ symplectic_form(m) @ root
    eigs = np.linalg.eigvalsh(H)
    return np.sort(eigs[eigs > 0])


class TestSymplecticForm:
    def test_single_mode_block(self):
        assert np.array_equal(symplectic_form(1), np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_two_modes_direct_sum(self):
        J = symplectic_form(2)
        assert J.shape == (4, 4)
        assert np.array_equal(J[:2, :2], symplectic_form(1))
        assert np.array_equal(J[2:, 2:], symplectic_form(1))
        assert np.all(J[:2, 2:] == 0) and np.all(J[2:, :2] == 0)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_orthogonal_and_squares_to_minus_identity(self, m):
        J = symplectic_form(m)
        assert np.array_equal(J @ J.T, np.eye(2 * m))
        assert np.array_equal(J @ J, -np.eye(2 * m))

    def test_zero_modes_rejected(self):
        with pytest.raises(InvalidArgumentError):
            symplectic_form(0)


class TestCovarianceMatrix:
    def test_rejects_odd_dimension(self):
        with pytest.raises(InvalidArgumentError):
            CovarianceMatrix(np.eye(3))

    def test_rejects_asymmetric(self):
        V = np.eye(4) / 4
        V[0, 1] = 1e-6
        with pytest.raises(InvalidArgumentError):
            CovarianceMatrix(V)

    def test_symmetrizes_tiny_asymmetry(self):
        V = np.eye(4) / 4
        V[0, 1] = 1e-14
        cov = CovarianceMatrix(V)
        assert cov.matrix[0, 1] == cov.matrix[1, 0]

    def test_json_roundtrip(self):
        cov = squeezed_thermal_params(0.3, 0.4).covariance()
        doc = json.loads(json.dumps(state_descriptor(cov)))
        again = parse_state_descriptor(doc)
        assert np.array_equal(again.matrix, cov.matrix)
        assert doc["family"] == "raw_covariance"
        assert doc["modes"] == 2
        assert doc["ordering"] == "x1,p1,x2,p2"

    def test_json_rejects_bad_ordering(self):
        doc = state_descriptor(CovarianceMatrix(np.eye(4) / 4))
        doc["ordering"] = "x1,x2,p1,p2"
        with pytest.raises(InvalidArgumentError):
            parse_state_descriptor(doc)

    @pytest.mark.parametrize(
        "text",
        [
            '{"modes": 1, "ordering": "x1,p1", "matrix": [[true, 0], [0, 0.25]]}',
            '{"modes": 1, "ordering": 7, "matrix": [[0.25, 0], [0, 0.25]]}',
            '{"modes": 1, "ordering": "x1,p1", "matrix": [[NaN, 0], [0, 0.25]]}',
            '{"modes": 1e300, "ordering": "x1,p1", "matrix": [[0.25, 0], [0, 0.25]]}',
            '{"modes": 1, "ordering": "x1,p1", "matrix": [[0.25, 0], [0]]}',
            '[1, 2]',
        ],
    )
    def test_json_rejects_malformed_document(self, text):
        # the same field decoders as every state descriptor
        doc = json.loads(text)
        if isinstance(doc, dict):
            doc = {"family": "raw_covariance", **doc}
        with pytest.raises(InvalidArgumentError):
            parse_state_descriptor(doc)


class TestIsPhysical:
    def test_vacuum(self):
        assert is_physical(CovarianceMatrix(np.eye(4) / 4))

    def test_below_vacuum_noise(self):
        assert not is_physical(CovarianceMatrix(np.eye(4) / 8))

    def test_two_two_family_threshold_sides(self):
        # threshold at a = b = 1 is 0.8074742889548395
        assert is_physical(two_two_family(1.0, 1.0, 0.807))
        assert not is_physical(two_two_family(1.0, 1.0, 0.808))
        assert not is_physical(two_two_family(1.0, 1.0, 0.82))

    def test_threshold_matches_eigenvalue_boundary(self):
        # bisection on the eigenvalue test must land on the closed form
        for a, b in [(1.0, 1.0), (0.7, 1.3), (0.5, 0.5)]:
            lo, hi = 0.0, np.sqrt(a * b)
            for _ in range(60):
                mid = (lo + hi) / 2
                if is_physical(two_two_family(a, b, mid)):
                    lo = mid
                else:
                    hi = mid
            assert abs(lo - family_threshold(a, b)) < 1e-8


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        nus = symplectic_eigenvalues(CovarianceMatrix(np.eye(4) / 4)).nus
        assert np.allclose(nus, [0.25, 0.25], atol=1e-12)

    def test_tmsv_is_pure(self):
        V = squeezed_thermal_params(0.0, 0.5).covariance()
        nus = symplectic_eigenvalues(V).nus
        assert np.allclose(nus, [0.25, 0.25], atol=1e-10)

    def test_balanced_standard_form(self):
        from cventangle import TwoModeStandardForm

        V = TwoModeStandardForm(0.5, 0.5, 0.3, -0.3).covariance()
        nus = np.array(symplectic_eigenvalues(V).nus)
        expected = np.sqrt(0.5 * 0.5 - 0.3**2)
        assert np.allclose(nus, [expected, expected], atol=1e-12)
        assert np.allclose(nus, hermitian_route_nus(V.matrix), atol=1e-10)

    def test_matches_hermitian_route(self, rng):
        for _ in range(25):
            V = random_physical_cov(rng, rng.integers(1, 4))
            nus = np.array(symplectic_eigenvalues(V).nus)
            assert np.allclose(nus, hermitian_route_nus(V.matrix), atol=1e-8)

    def test_symplectic_invariance(self, rng):
        for _ in range(25):
            m = int(rng.integers(1, 4))
            V = random_physical_cov(rng, m)
            S = random_symplectic(rng, m)
            nus = np.array(symplectic_eigenvalues(V).nus)
            nus_t = np.array(symplectic_eigenvalues(CovarianceMatrix(S @ V.matrix @ S.T)).nus)
            assert np.max(np.abs(nus - nus_t)) < 1e-8

    def test_physical_spectra_above_vacuum(self, rng):
        for _ in range(50):
            V = random_physical_cov(rng, rng.integers(1, 4))
            assert min(symplectic_eigenvalues(V).nus) >= 0.25 - 1e-9

    def test_determinant_product_rule(self, rng):
        for _ in range(50):
            V = random_physical_cov(rng, rng.integers(1, 4))
            nus = np.array(symplectic_eigenvalues(V).nus)
            det = np.linalg.det(V.matrix)
            assert abs(det - np.prod(nus**2)) <= 1e-9 * max(1.0, abs(det))

    def test_rejects_indefinite(self):
        with pytest.raises(SingularInputError):
            symplectic_eigenvalues(CovarianceMatrix(np.diag([1.0, -1.0, 1.0, 1.0])))


class TestPartialTranspose:
    def test_vacuum_unchanged(self):
        V = CovarianceMatrix(np.eye(4) / 4)
        assert np.array_equal(partial_transpose(V, [1]).matrix, V.matrix)

    def test_tmsv_momentum_flip(self):
        V = squeezed_thermal_params(0.0, 0.5).covariance()
        pt = partial_transpose(V, [1])
        assert pt.matrix[1, 3] == -V.matrix[1, 3]
        assert pt.matrix[0, 2] == V.matrix[0, 2]
        min_nu = min(symplectic_eigenvalues(pt).nus)
        assert abs(min_nu - np.exp(-1.0) / 4) < 1e-12

    def test_involution_bit_exact(self, rng):
        for _ in range(20):
            V = random_physical_cov(rng, 3)
            back = partial_transpose(partial_transpose(V, [0, 2]), [0, 2])
            assert np.array_equal(back.matrix, V.matrix)

    def test_out_of_range_mode(self):
        V = CovarianceMatrix(np.eye(4) / 4)
        with pytest.raises(InvalidArgumentError):
            partial_transpose(V, [2])
        with pytest.raises(InvalidArgumentError):
            partial_transpose(V, [])


class TestIsPpt:
    def test_two_two_family_point(self):
        assert is_ppt(two_two_family(1.0, 1.0, 0.78), modes_b=(2, 3))

    def test_tmsv_is_npt(self):
        V = squeezed_thermal_params(0.0, 0.5).covariance()
        assert not is_ppt(V, modes_b=(1,))

    def test_products_are_ppt(self, rng):
        for _ in range(30):
            assert is_ppt(random_product_cov(rng), modes_b=(1,))

    def test_two_two_family_ppt_everywhere(self, rng):
        # every valid point of the family keeps a physical partial transpose
        for _ in range(40):
            a = rng.uniform(0.25, 2.0)
            b = a if rng.random() < 0.5 else rng.uniform(0.25, 2.0)
            c = rng.uniform(-1.0, 1.0) * family_threshold(a, b)
            assert is_ppt(two_two_family(a, b, c), modes_b=(2, 3))
