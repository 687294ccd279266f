import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from cventangle import (
    InvalidArgumentError,
    TruncationError,
    WitnessParams,
    coherent_mixture_fock,
    cren_lower_bound,
    negativity_fock,
    photon_added_sts_fock,
    realignment_norm_two_mode,
    realignment_trace_norm_fock,
    squeezed_thermal_fock,
    squeezed_thermal_params,
    swap_expectation_coherent_mixture,
    tmsv_fock,
    witness_expectation_gaussian,
    witness_fock,
    witness_photon_added_closed,
)
from cventangle import cli, fock
from cventangle.fock import (
    FockDensityMatrix,
    _check_deficit,
    _component_labels,
    _log_factorials,
    _require_cutoff,
    _squeezer_ladder_block,
    _thermal_weights,
    coherent_amplitudes,
)

# ---------------------------------------------------------------------------
# reference helpers: operators written out as matrices, independent of the
# index sums the package uses
# ---------------------------------------------------------------------------


def annihilation(cutoff: int) -> np.ndarray:
    """Single-mode annihilation operator on the truncated space."""
    return np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)


def witness_operator(which: str, cutoff: int) -> np.ndarray:
    """Truncated matrix of the requested observable.

    ``W01`` is identity minus the sum of all |ii><jj| (the witness at
    (mu1, mu2) = (0, 1)); ``SWAP`` is the mode-exchange operator
    sum of |ij><ji|.
    """
    d = cutoff + 1
    if which == "W01":
        e = np.zeros(d * d)
        e[np.arange(d) * (d + 1)] = 1.0
        return np.eye(d * d) - np.outer(e, e)
    ii, jj = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    V = np.zeros((d * d, d * d))
    V[(ii * d + jj).ravel(), (jj * d + ii).ravel()] = 1.0
    return V


def expectation_two_mode(rho: FockDensityMatrix, A: np.ndarray, B: np.ndarray) -> complex:
    """Tr[rho (A x B)] without forming the Kronecker product."""
    d = rho.dim
    rho4 = rho.matrix.reshape(d, d, d, d)
    return complex(np.einsum("ijkl,ki,lj->", rho4, A, B))


def covariance_from_fock(rho: FockDensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Means and symmetrized quadrature covariance extracted from the matrix.

    Used to check Fock constructions against the analytic covariance.
    """
    d = rho.dim
    a = annihilation(rho.cutoff)
    x = (a + a.T) / 2.0
    p = (a - a.T) / 2.0j
    eye = np.eye(d)
    singles = {0: x, 1: p}
    mean = np.zeros(4)
    for mode in range(2):
        for q in range(2):
            op = singles[q]
            A, B = (op, eye) if mode == 0 else (eye, op)
            mean[2 * mode + q] = expectation_two_mode(rho, A, B).real
    V = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            mi, qi = divmod(i, 2)
            mj, qj = divmod(j, 2)
            if mi == mj:
                op = (singles[qi] @ singles[qj] + singles[qj] @ singles[qi]) / 2.0
                A, B = (op, eye) if mi == 0 else (eye, op)
            else:
                A = singles[qi] if mi == 0 else singles[qj]
                B = singles[qj] if mj == 1 else singles[qi]
            V[i, j] = expectation_two_mode(rho, A, B).real - mean[i] * mean[j]
    return mean, V


def assert_valid_density_matrix(rho: FockDensityMatrix, trace=1.0):
    m = rho.matrix
    assert np.abs(m - m.conj().T).max() < 1e-12
    assert abs(np.trace(m).real - trace) < 1e-10
    assert np.linalg.eigvalsh(m).min() > -1e-10


class TestTmsv:
    def test_zero_squeezing_is_vacuum(self):
        rho = tmsv_fock(0.0, 10)
        expected = np.zeros((121, 121))
        expected[0, 0] = 1.0
        assert np.array_equal(rho.matrix.real, expected)
        assert rho.trace_deficit == 0.0

    def test_schmidt_amplitudes(self):
        r, cutoff = 0.6, 20
        rho = tmsv_fock(r, cutoff)
        d = cutoff + 1
        for k in (0, 1, 5):
            amp = math.tanh(r) ** k / math.cosh(r)
            assert abs(rho.matrix[k * (d + 1), 0].real - amp / math.cosh(r)) < 1e-9

    def test_purity_one(self):
        rho = tmsv_fock(0.6, 30)
        assert abs(np.trace(rho.matrix @ rho.matrix).real - 1.0) < 1e-10
        assert_valid_density_matrix(rho)

    def test_deficit_is_geometric_tail(self):
        rho = tmsv_fock(0.6, 40)
        assert abs(rho.trace_deficit - math.tanh(0.6) ** 82) < 1e-18
        assert rho.trace_deficit < 1e-8

    def test_truncation_gate(self):
        with pytest.raises(TruncationError):
            tmsv_fock(2.0, 4)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidArgumentError):
            tmsv_fock(-0.5, 10)
        with pytest.raises(InvalidArgumentError):
            tmsv_fock(0.5, 3)


class TestSqueezedThermal:
    def test_matches_tmsv_at_zero_thermal(self):
        a = squeezed_thermal_fock(0.0, 0.6, 15).matrix
        b = tmsv_fock(0.6, 15).matrix
        assert np.abs(a - b).max() < 1e-12

    def test_extracted_covariance_matches_params(self):
        # gate for the ladder construction: quadrature moments must reproduce
        # the analytic covariance to 1e-6
        rho = squeezed_thermal_fock(0.3, 0.4, 25)
        mean, V = covariance_from_fock(rho)
        assert np.abs(mean).max() < 1e-10
        expected = squeezed_thermal_params(0.3, 0.4).covariance().matrix
        assert np.abs(V - expected).max() < 1e-6

    def test_witness_matches_closed_form(self):
        n, r, cutoff = 0.2, 0.5, 30
        rho = squeezed_thermal_fock(n, r, cutoff)
        closed = witness_expectation_gaussian(
            squeezed_thermal_params(n, r), WitnessParams(0.0, 1.0)
        )
        assert abs(witness_fock(rho, "W01") - closed) < 1e-3
        assert_valid_density_matrix(rho)

    def test_realignment_matches_closed_form(self):
        n, r, cutoff = 0.2, 0.5, 30
        rho = squeezed_thermal_fock(n, r, cutoff)
        closed = realignment_norm_two_mode(squeezed_thermal_params(n, r))
        assert abs(realignment_trace_norm_fock(rho) - closed) < 1e-3


class TestCoherentMixture:
    def test_pure_vacuum_limit(self):
        rho = coherent_mixture_fock(0.0, 1.0, -1.0, 15)
        assert abs(rho.matrix[0, 0].real - 1.0) < 1e-12

    def test_intended_trace(self):
        p, a1, a2 = 0.6, 1.0, -1.0
        rho = coherent_mixture_fock(p, a1, a2, 25)
        expected = 1.0 - p * math.exp(-abs(a1 - a2) ** 2)
        assert abs(np.trace(rho.matrix).real - expected) < 1e-12
        assert np.linalg.eigvalsh(rho.matrix).min() > -1e-12

    def test_swap_matches_closed_form(self):
        p, a1, a2 = 0.6, 1.0, -1.0
        rho = coherent_mixture_fock(p, a1, a2, 25)
        closed = swap_expectation_coherent_mixture(p, a1, a2)
        assert abs(witness_fock(rho, "SWAP") - closed) < 1e-6

    def test_degenerate_raises(self):
        with pytest.raises(InvalidArgumentError):
            coherent_mixture_fock(1.0, 0.7, 0.7, 15)

    def test_entangled_above_threshold(self):
        p_star = 1.0 / (2.0 - math.exp(-4.0))
        rho = coherent_mixture_fock(p_star + 0.05, 1.0, -1.0, 25)
        assert negativity_fock(rho) > 0.0

    def test_truncation_gate(self):
        with pytest.raises(TruncationError):
            coherent_mixture_fock(0.6, 4.0, -4.0, 8)

    @pytest.mark.parametrize("alpha,dtype", [(1.0, np.float64), (-1.0, np.float64),
                                             (0.0, np.float64), (1j, np.complex128),
                                             (1 + 1j, np.complex128)])
    def test_amplitudes_real_exactly_when_phases_are(self, alpha, dtype):
        assert coherent_amplitudes(alpha, 12).dtype == dtype

    @pytest.mark.parametrize("p,a1,a2", [(0.6, 1.0, -1.0), (0.3, 0.0, 0.8), (1.0, -0.5, 1.2)])
    def test_real_build_matches_complex_outer_product(self, p, a1, a2):
        cutoff = 20
        c1, c2 = (coherent_amplitudes(a, cutoff).astype(complex) for a in (a1, a2))
        phi = (np.kron(c1, c2) - np.kron(c2, c1)) / math.sqrt(2.0)
        reference = p * np.outer(phi, phi.conj())
        reference[0, 0] += 1.0 - p
        rho = coherent_mixture_fock(p, a1, a2, cutoff)
        assert rho.matrix.dtype == np.float64
        assert np.abs(rho.matrix - reference).max() < 1e-15


class TestPhotonAdded:
    def test_zero_params_is_single_photon(self):
        rho = photon_added_sts_fock(0.0, 0.0, 10)
        d = 11
        expected = np.zeros((d * d, d * d))
        expected[1, 1] = 1.0  # |0>_1 |1>_2
        assert np.abs(rho.matrix - expected).max() < 1e-12
        assert witness_fock(rho, "W01") == pytest.approx(1.0, abs=1e-12)

    def test_witness_matches_closed_form(self):
        n, r, cutoff = 0.5, 0.5, 30
        rho = photon_added_sts_fock(n, r, cutoff)
        assert abs(witness_fock(rho, "W01") - witness_photon_added_closed(n, r)) < 1e-3
        assert_valid_density_matrix(rho)

    def test_convergence_toward_closed_form(self):
        # the (1, 1) corner converges monotonically as the cutoff grows
        closed = witness_photon_added_closed(1.0, 1.0)
        errs = [
            abs(witness_fock(photon_added_sts_fock(1.0, 1.0, c), "W01") - closed)
            for c in (40, 50)
        ]
        assert errs[1] < errs[0]

    def test_truncation_gate_at_corner(self):
        # (n, r) = (1, 1) at cutoff 30 loses ~3% of the trace; the 1% gate fires
        with pytest.raises(TruncationError):
            photon_added_sts_fock(1.0, 1.0, 30)

    def test_rejects_negative(self):
        with pytest.raises(InvalidArgumentError):
            photon_added_sts_fock(-0.5, 0.5, 20)


class TestHugeSqueezing:
    """Past r = 355 (cosh 2r) and r = 710 (cosh r) the exact normalizers leave
    the double range; the truncated trace is about 0 there, so the trace-deficit
    gate refuses the state."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: squeezed_thermal_fock(0.1, 1000.0, 8),
            lambda: squeezed_thermal_fock(0.0, 400.0, 8),
            lambda: photon_added_sts_fock(0.0, 400.0, 8),
            lambda: photon_added_sts_fock(0.5, 1000.0, 8),
            lambda: tmsv_fock(1000.0, 8),
        ],
        ids=["thermal-1000", "thermal-400", "added-400", "added-1000", "tmsv-1000"],
    )
    def test_truncation_error_not_overflow(self, build):
        with pytest.raises(TruncationError, match="trace deficit 1 "):
            build()


class TestWitnessFock:
    def test_vacuum_w01_vanishes(self):
        rho = tmsv_fock(0.0, 8)
        assert witness_fock(rho, "W01") == pytest.approx(0.0, abs=1e-14)

    def test_tmsv_w01(self):
        rho = tmsv_fock(0.6, 40)
        assert abs(witness_fock(rho, "W01") - (1.0 - math.exp(1.2))) < 1e-3

    def test_tmsv_swap_is_one(self):
        rho = tmsv_fock(0.6, 40)
        assert abs(witness_fock(rho, "SWAP") - 1.0) < 1e-9

    def test_product_pure_swap_is_overlap(self):
        # coherent product states: <SWAP> = |<a1|a2>|^2 = exp(-|a1-a2|^2)
        cutoff = 25
        for a1, a2 in [(0.5, -0.5), (1.0, 0.3), (0.8j, -0.2)]:
            v1 = coherent_amplitudes(a1, cutoff)
            v2 = coherent_amplitudes(a2, cutoff)
            psi = np.kron(v1, v2)
            rho = FockDensityMatrix(cutoff, np.outer(psi, psi.conj()), 0.0)
            expected = math.exp(-abs(complex(a1) - complex(a2)) ** 2)
            assert abs(witness_fock(rho, "SWAP") - expected) < 1e-10
            assert witness_fock(rho, "SWAP") >= 0.0

    def test_swap_operator_is_permutation(self):
        V = witness_operator("SWAP", 3)
        assert np.array_equal(V @ V, np.eye(16))
        psi = np.kron(coherent_amplitudes(0.4, 3), coherent_amplitudes(-0.2, 3))
        swapped = np.kron(coherent_amplitudes(-0.2, 3), coherent_amplitudes(0.4, 3))
        assert np.allclose(V @ psi, swapped, atol=1e-15)

    def test_unknown_operator(self):
        with pytest.raises(InvalidArgumentError):
            witness_fock(tmsv_fock(0.0, 8), "PPT")


class TestRealignmentTraceNorm:
    def test_vacuum_is_one(self):
        assert abs(realignment_trace_norm_fock(tmsv_fock(0.0, 8)) - 1.0) < 1e-12

    def test_tmsv_converges_to_closed_form(self):
        rho = tmsv_fock(0.6, 40)
        assert abs(realignment_trace_norm_fock(rho) - math.exp(1.2)) < 1e-3

    def test_maximally_correlated_norm_grows(self):
        def corr_state(cutoff):
            d = cutoff + 1
            e = np.zeros(d * d)
            e[np.arange(d) * (d + 1)] = 1.0
            return FockDensityMatrix(cutoff, np.outer(e, e) / d, 0.0)

        norms = [realignment_trace_norm_fock(corr_state(c)) for c in (4, 8, 12)]
        assert norms[0] < norms[1] < norms[2]
        # exact: the correlated projector realigns to norm (N+1)
        assert abs(norms[0] - 5.0) < 1e-10


class TestNegativity:
    def test_product_state_is_zero(self):
        cutoff = 15
        psi = np.kron(coherent_amplitudes(0.7, cutoff), coherent_amplitudes(-0.4, cutoff))
        rho = FockDensityMatrix(cutoff, np.outer(psi, psi.conj()), 0.0)
        assert abs(negativity_fock(rho)) < 1e-10

    def test_tmsv_schmidt_sum(self):
        rho = tmsv_fock(0.6, 40)
        assert abs(negativity_fock(rho) - (math.exp(1.2) - 1.0)) < 1e-3

    def test_nonnegative(self):
        assert negativity_fock(tmsv_fock(0.0, 8)) >= -1e-10


class TestOracleInequalities:
    def test_negativity_dominates_witness(self):
        # CREN lower bound must hold on every constructed family
        states = [
            tmsv_fock(0.6, 40),
            squeezed_thermal_fock(0.2, 0.5, 30),
            coherent_mixture_fock(0.6, 1.0, -1.0, 25),
            photon_added_sts_fock(0.5, 0.5, 30),
        ]
        for rho in states:
            w01 = witness_fock(rho, "W01")
            assert negativity_fock(rho) >= -w01 - 1e-6

    def test_cren_saturated_by_tmsv(self):
        rho = tmsv_fock(0.6, 40)
        cren = cren_lower_bound(witness_fock(rho, "W01"))
        assert abs(cren - negativity_fock(rho)) < 1e-3


class TestBuilderArguments:
    @pytest.mark.parametrize("cutoff", [3, -3])
    @pytest.mark.parametrize(
        "build",
        [
            lambda cutoff: tmsv_fock(0.3, cutoff),
            lambda cutoff: squeezed_thermal_fock(0.2, 0.3, cutoff),
            lambda cutoff: photon_added_sts_fock(0.2, 0.3, cutoff),
            lambda cutoff: coherent_mixture_fock(0.5, 1.0, -1.0, cutoff),
        ],
        ids=["tmsv", "squeezed_thermal", "photon_added", "coherent_mixture"],
    )
    def test_cutoff_below_4_rejected(self, build, cutoff):
        with pytest.raises(InvalidArgumentError, match="cutoff"):
            build(cutoff)


def dense_negativity(rho: FockDensityMatrix) -> float:
    """Reference: every eigenvalue of the whole partial transpose at once."""
    d = rho.dim
    pt = rho.matrix.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)
    return float(np.abs(np.linalg.eigvalsh(pt)).sum() - 1.0)


def dense_realignment(rho: FockDensityMatrix) -> float:
    """Reference: every singular value of the whole realigned matrix at once."""
    d = rho.dim
    R = rho.matrix.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    return float(np.linalg.svd(R, compute_uv=False).sum())


def assert_sectors_match_dense(rho: FockDensityMatrix):
    assert abs(negativity_fock(rho) - dense_negativity(rho)) <= 1e-12
    assert abs(realignment_trace_norm_fock(rho) - dense_realignment(rho)) <= 1e-12


def n_components(M: np.ndarray, bipartite: bool) -> int:
    """Number of sectors the kernels split ``M`` into: the components of the
    graph on the exactly nonzero entries, over the indices of a symmetric
    ``M`` or, if ``bipartite``, its rows followed by its columns."""
    u, v = np.divmod(np.flatnonzero(M), M.shape[1])
    nodes = M.shape[0]
    if bipartite:
        u, v = np.concatenate([u, v + nodes]), np.concatenate([v + nodes, u])
        nodes += M.shape[1]
    return len(np.unique(_component_labels(u, v, nodes)))


SECTORS = settings(max_examples=40, deadline=None, database=None)
unit = st.floats(0.0, 1.0)


@st.composite
def oracle_states(draw):
    """Any of the four constructors at a small cutoff, with its edges (r = 0,
    n = 0, p in {0, 1}, real and complex amplitudes) drawn often."""
    cutoff = draw(st.integers(4, 9))
    r = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.7)))
    n = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5)))
    kind = draw(st.sampled_from(["tmsv", "thermal", "added", "mixture"]))
    amplitude = st.builds(complex, st.floats(-1.2, 1.2), st.one_of(st.just(0.0), st.floats(-1.2, 1.2)))
    try:
        if kind == "tmsv":
            return tmsv_fock(r, cutoff)
        if kind == "thermal":
            return squeezed_thermal_fock(n, r, cutoff)
        if kind == "added":
            return photon_added_sts_fock(n, r, cutoff)
        p = draw(st.one_of(st.sampled_from([0.0, 1.0]), unit))
        return coherent_mixture_fock(p, draw(amplitude), draw(amplitude), cutoff)
    except (TruncationError, InvalidArgumentError):
        reject()


class TestSectorKernels:
    """Sector negativity and realigned trace norm against dense references."""

    @SECTORS
    @given(rho=oracle_states())
    def test_builders_match_dense(self, rho):
        assert_sectors_match_dense(rho)

    @SECTORS
    @given(seed=st.integers(0, 2**32 - 1), cutoff=st.integers(4, 6))
    def test_random_dense_state_is_one_sector(self, seed, cutoff):
        rng = np.random.default_rng(seed)
        d2 = (cutoff + 1) ** 2
        G = rng.normal(size=(d2, d2)) + 1j * rng.normal(size=(d2, d2))
        rho = FockDensityMatrix(cutoff, G @ G.conj().T / np.trace(G @ G.conj().T).real, 0.0)
        assert n_components(rho.matrix, bipartite=False) == 1
        assert_sectors_match_dense(rho)

    @SECTORS
    @given(seed=st.integers(0, 2**32 - 1), cutoff=st.integers(4, 6))
    def test_tiny_coupling_merges_sectors(self, seed, cutoff):
        # a state block-diagonal in the photon-number difference, plus a single
        # 1e-300 coupling between the difference-0 and difference-(-1) blocks
        rng = np.random.default_rng(seed)
        d = cutoff + 1
        i, j = np.divmod(np.arange(d * d), d)
        G = rng.normal(size=(d * d, d * d)) * ((i - j)[:, None] == (i - j)[None, :])
        block = G @ G.T / np.trace(G @ G.T)
        coupled = block.copy()
        coupled[0, 1] = coupled[1, 0] = 1e-300
        # sectors: i + l of the partial transpose, i - k of the realigned matrix;
        # the coupling and its Hermitian partner join PT sectors 0 and 1 and
        # realigned sectors -1, 0 and 1
        for matrix, merged in ((block, 0), (coupled, 1)):
            rho = FockDensityMatrix(cutoff, matrix, 0.0)
            pt = rho.matrix.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)
            R = rho.matrix.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
            assert n_components(pt, bipartite=False) == 2 * d - 1 - merged
            assert n_components(R, bipartite=True) == 2 * d - 1 - 2 * merged
            assert_sectors_match_dense(rho)


class TestConstructionGate:
    """The Hermiticity gate, the symmetrization and the non-finite check read
    only the nonzero pattern and its mirror; each must agree with the dense
    definition."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.1, math.nan)])
    def test_non_finite_entry_rejected(self, bad):
        m = np.zeros((25, 25), dtype=complex if isinstance(bad, complex) else float)
        m[0, 0] = 1.0
        m[3, 7] = m[7, 3] = bad
        with pytest.raises(InvalidArgumentError, match="finite"):
            FockDensityMatrix(4, m, 0.0)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_one_sided_asymmetry_rejected(self, dtype):
        # the only asymmetry sits where the mirror entry is exactly 0
        m = np.eye(25, dtype=dtype) / 25
        m[2, 9] = 1e-9
        assert m[9, 2] == 0
        with pytest.raises(InvalidArgumentError, match="Hermitian"):
            FockDensityMatrix(4, m, 0.0)

    @settings(max_examples=30, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), cutoff=st.integers(4, 6), complex_=st.booleans(),
           sparsity=st.sampled_from([0.0, 0.5, 0.95]))
    def test_symmetrization_is_dense_formula_bitwise(self, seed, cutoff, complex_, sparsity):
        rng = np.random.default_rng(seed)
        d2 = (cutoff + 1) ** 2
        G = rng.normal(size=(d2, d2)) + (1j * rng.normal(size=(d2, d2)) if complex_ else 0)
        G *= rng.random((d2, d2)) >= sparsity
        m = G @ G.conj().T / d2
        # break Hermiticity by at most 1e-13 of the largest entry: noise on the
        # nonzero entries, and a few one-sided entries whose mirror stays 0
        scale = np.abs(m).max()
        m = m + 1e-13 * scale * rng.uniform(-1, 1, size=(d2, d2)) * (m != 0)
        m[(rng.random((d2, d2)) < 0.05) & (m == 0)] = 1e-14 * scale
        rho = FockDensityMatrix(cutoff, m, 0.0)
        expected = (m + m.conj().T) / 2.0
        assert rho.matrix.dtype == expected.dtype
        # equal bit for bit, up to the sign of an exact zero
        assert np.array_equal(rho.matrix, expected)
        if sparsity == 0.0:
            assert rho.matrix.tobytes() == expected.tobytes()
        assert np.array_equal(rho.support, np.flatnonzero(rho.matrix))

    @SECTORS
    @given(rho=oracle_states())
    def test_support_is_nonzero_pattern(self, rho):
        assert np.array_equal(rho.support, np.flatnonzero(rho.matrix))
        assert not rho.support.flags.writeable

    def test_subnormal_pair_averaging_to_zero_leaves_support(self):
        m = np.eye(25) / 25
        m[0, 1] = 5e-324  # the smallest subnormal; its mirror is exactly 0
        rho = FockDensityMatrix(4, m, 0.0)
        assert rho.matrix[0, 1] == rho.matrix[1, 0] == 0.0
        assert 1 not in rho.support and 25 not in rho.support
        assert np.array_equal(rho.support, np.arange(25) * 26)


class TestConstructorArguments:
    """The cutoff must be an int >= 0 (not a bool) and the trace deficit a
    number in [0, 1]."""

    @pytest.mark.parametrize("cutoff,matrix", [
        (-2, np.eye(1)),  # would have dimension -1
        (-1, np.zeros((0, 0))),  # would have negativity -1
        (True, np.eye(4) / 4),
        (np.True_, np.eye(4) / 4),
        (4.0, np.eye(25) / 25),
        ("4", np.eye(25) / 25),
    ], ids=["minus-2", "minus-1", "bool", "numpy-bool", "float", "str"])
    def test_bad_cutoff_rejected(self, cutoff, matrix):
        with pytest.raises(InvalidArgumentError, match="cutoff"):
            FockDensityMatrix(cutoff, matrix, 0.0)

    @pytest.mark.parametrize("deficit", [math.nan, -0.1, -math.inf, 1.5, math.inf, "0.1x", None])
    def test_bad_deficit_rejected(self, deficit):
        with pytest.raises(InvalidArgumentError, match="trace deficit"):
            FockDensityMatrix(4, np.eye(25) / 25, deficit)

    @pytest.mark.parametrize("cutoff,deficit", [(0, 0.0), (4, 1.0), (np.int64(4), 0.5)])
    def test_edges_accepted(self, cutoff, deficit):
        d = (int(cutoff) + 1) ** 2
        rho = FockDensityMatrix(cutoff, np.eye(d) / d, deficit)
        assert type(rho.cutoff) is int and rho.dim == int(cutoff) + 1
        assert rho.trace_deficit == deficit


class TestRealStorage:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: tmsv_fock(0.4, 8),
            lambda: squeezed_thermal_fock(0.2, 0.4, 8),
            lambda: photon_added_sts_fock(0.3, 0.3, 10),
            lambda: coherent_mixture_fock(0.6, 1.0, -1.0, 10),
            lambda: coherent_mixture_fock(0.6, 0.5j, -0.5j, 10),
        ],
    )
    def test_real_entries_are_stored_real(self, build):
        assert build().matrix.dtype == np.float64

    def test_equality_is_identity(self):
        # a state holds arrays, so equality and hashing go by identity
        rho, again = tmsv_fock(0.3, 4), tmsv_fock(0.3, 4)
        assert rho == rho and not (rho == again) and rho != again
        assert {rho: "built", again: "rebuilt"}[rho] == "built"

    def test_complex_entries_stay_complex(self):
        rho = coherent_mixture_fock(0.6, 1.0, 0.5 + 0.5j, 20)
        assert rho.matrix.dtype == np.complex128
        assert_valid_density_matrix(rho, trace=1.0 - 0.6 * math.exp(-abs(0.5 - 0.5j) ** 2))


# ---------------------------------------------------------------------------
# reference builders: each state assembled as a dense matrix and handed to the
# public constructor, against the builders' entry lists
# ---------------------------------------------------------------------------


def dense_tmsv(r, cutoff):
    r = float(r)
    if r < 0:
        raise InvalidArgumentError(f"squeezing must be nonnegative, got {r}")
    _require_cutoff(cutoff)
    d = cutoff + 1
    deficit = _check_deficit(math.tanh(r) ** (2 * (cutoff + 1)), f"TMSV r={r}")
    amps = np.array([math.tanh(r) ** k / math.cosh(r) for k in range(d)])
    amps /= np.linalg.norm(amps)
    rho = np.zeros((d * d, d * d))
    diag = np.arange(d) * (d + 1)
    rho[np.ix_(diag, diag)] = np.outer(amps, amps)
    return FockDensityMatrix(cutoff=cutoff, matrix=rho, trace_deficit=deficit)


def dense_coherent_mixture(p, alpha1, alpha2, cutoff):
    p = float(p)
    if not (0.0 <= p <= 1.0):
        raise InvalidArgumentError(f"mixing probability must lie in [0, 1], got {p}")
    _require_cutoff(cutoff)
    overlap2 = math.exp(-abs(complex(alpha1) - complex(alpha2)) ** 2)
    intended_trace = 1.0 - p * overlap2
    if intended_trace <= 1e-15:
        raise InvalidArgumentError("degenerate mixture")
    c1 = coherent_amplitudes(alpha1, cutoff)
    c2 = coherent_amplitudes(alpha2, cutoff)
    phi = (np.kron(c1, c2) - np.kron(c2, c1)) / math.sqrt(2.0)
    rho = np.outer(phi, phi.conj())
    rho *= p
    rho[0, 0] += 1.0 - p
    deficit = _check_deficit(
        1.0 - float(np.trace(rho).real) / intended_trace,
        f"coherent mixture |alpha1|={abs(alpha1)}, |alpha2|={abs(alpha2)}",
    )
    return FockDensityMatrix(cutoff=cutoff, matrix=rho, trace_deficit=deficit)


def dense_sts_raw(n, r, cutoff):
    d = cutoff + 1
    pk = _thermal_weights(n, cutoff)
    lg = _log_factorials(cutoff)
    rho = np.zeros((d * d, d * d))
    for delta in range(d):
        B = _squeezer_ladder_block(r, cutoff, delta, lg)
        m = np.arange(d - delta)
        weights = pk[m + delta] * pk[m]
        block = (B * weights[None, :]) @ B.T
        idx = (m + delta) * d + m
        rho[np.ix_(idx, idx)] += block
        if delta:
            idx_mirror = m * d + (m + delta)
            rho[np.ix_(idx_mirror, idx_mirror)] += block
    return rho


def dense_squeezed_thermal(n, r, cutoff):
    n, r = float(n), float(r)
    _require_cutoff(cutoff)
    rho = dense_sts_raw(n, r, cutoff)
    trace = float(np.trace(rho))
    deficit = _check_deficit(1.0 - trace, f"squeezed thermal n={n}, r={r}")
    rho /= trace
    return FockDensityMatrix(cutoff=cutoff, matrix=rho, trace_deficit=deficit)


def dense_photon_added(n, r, cutoff):
    n, r = float(n), float(r)
    _require_cutoff(cutoff)
    d = cutoff + 1
    rho = dense_sts_raw(n, r, cutoff)
    rho4 = rho.reshape(d, d, d, d)
    num4 = np.zeros_like(rho4)
    root = np.sqrt(np.arange(1.0, d))
    shifted = num4[:, 1:, :, 1:]
    np.multiply(rho4[:, :-1, :, :-1], root[None, :, None, None], out=shifted)
    shifted *= root[None, None, None, :]
    del rho, rho4
    num = num4.reshape(d * d, d * d)
    cosh_2r = math.cosh(2.0 * r) if r < 355.0 else math.inf
    norm_exact = 0.5 + (1.0 + 2.0 * n) * cosh_2r / 2.0
    trace = float(np.trace(num))
    deficit = _check_deficit(1.0 - trace / norm_exact, f"photon-added state n={n}, r={r}")
    num /= trace
    return FockDensityMatrix(cutoff=cutoff, matrix=num, trace_deficit=deficit)


DENSE_BUILDERS = {
    "tmsv_fock": dense_tmsv,
    "squeezed_thermal_fock": dense_squeezed_thermal,
    "photon_added_sts_fock": dense_photon_added,
    "coherent_mixture_fock": dense_coherent_mixture,
}

# builder arguments before the cutoff; ``sparse`` cases also run at cutoff 64,
# where a full-pattern mixture would take gigabytes in the dense reference
SPARSE_CASES = [
    ("tmsv_fock", (0.0,)),
    ("tmsv_fock", (0.6,)),
    ("tmsv_fock", (1000.0,)),
    ("squeezed_thermal_fock", (0.0, 0.0)),
    ("squeezed_thermal_fock", (0.0, 0.6)),
    ("squeezed_thermal_fock", (0.2, 0.6)),
    ("squeezed_thermal_fock", (0.2, 1000.0)),
    ("photon_added_sts_fock", (0.0, 0.0)),
    ("photon_added_sts_fock", (0.5, 0.6)),
    ("photon_added_sts_fock", (1.0, 1.0)),
    ("photon_added_sts_fock", (0.5, 1000.0)),
    ("coherent_mixture_fock", (0.5, 0.0, 0.8)),  # zero alpha
    ("coherent_mixture_fock", (0.6, 0.7, 0.7)),  # alpha1 = alpha2, p < 1
    ("coherent_mixture_fock", (0.5, 0.0, 0.0)),
]
FULL_CASES = [
    ("coherent_mixture_fock", (0.6, 1.0, -1.0)),  # real
    ("coherent_mixture_fock", (0.3, 0.5j, -0.5j)),  # imaginary
    ("coherent_mixture_fock", (0.6, 1.0, 0.5j)),  # complex
    ("coherent_mixture_fock", (1.0, -0.5, 1.2)),
]
EQUALITY_GRID = [
    *[(name, args, cutoff) for cutoff in (4, 5, 12, 40)
      for name, args in SPARSE_CASES + FULL_CASES],
    *[(name, args, 64) for name, args in SPARSE_CASES],
    ("photon_added_sts_fock", (0.5, 0.6), 6),  # refused: loses 13.5% of its trace
]


def build_or_refusal(build, *args):
    try:
        return build(*args)
    except (InvalidArgumentError, TruncationError) as exc:
        return exc


class TestEntryBuilders:
    """Each builder hands its nonzero entries straight to the constructor core;
    its state must be the dense assembly's bit for bit."""

    @pytest.mark.parametrize("name,args,cutoff", EQUALITY_GRID,
                             ids=[f"{n}{a}-{c}" for n, a, c in EQUALITY_GRID])
    def test_bitwise_equal_to_dense_assembly(self, name, args, cutoff):
        built = build_or_refusal(getattr(fock, name), *args, cutoff)
        reference = build_or_refusal(DENSE_BUILDERS[name], *args, cutoff)
        if isinstance(reference, Exception):
            assert type(built) is type(reference) and str(built) == str(reference)
            return
        assert isinstance(built, FockDensityMatrix)
        assert built.matrix.dtype == reference.matrix.dtype
        assert built.matrix.tobytes() == reference.matrix.tobytes()
        assert np.array_equal(built.support, reference.support)
        assert repr(built.trace_deficit) == repr(reference.trace_deficit)

    @pytest.mark.parametrize("build", [
        lambda: tmsv_fock(0.6, 40),
        lambda: squeezed_thermal_fock(0.2, 0.6, 40),
        lambda: photon_added_sts_fock(0.5, 0.6, 40),
    ], ids=["tmsv", "squeezed_thermal", "photon_added"])
    def test_peak_memory_is_one_dense_matrix(self, build):
        dense_bytes = (41 * 41) ** 2 * 8
        tracemalloc.start()
        try:
            rho = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rho.matrix.nbytes == dense_bytes
        assert peak <= 1.25 * dense_bytes, f"peak {peak / dense_bytes:.2f} dense matrices"

    @pytest.mark.parametrize("cutoff,rmax,code", [
        ("40", "0.6", 0), ("8", "0.3", 3), ("6", "0.6", 5),
        ("20", "1.0", 5), ("30", "0", 0), ("8", "1000", 3),
    ])
    def test_verify_output_equals_dense_assembly(self, cutoff, rmax, code, capsys, monkeypatch):
        argv = ["verify", "--cutoff", cutoff, "--rmax", rmax]
        assert cli.main(argv) == code
        built = capsys.readouterr().out
        for name, build in DENSE_BUILDERS.items():
            monkeypatch.setattr(fock, name, build)
        assert cli.main(argv) == code
        assert capsys.readouterr().out == built
