import math
import tracemalloc
from functools import partial

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
    witness_coherent_mixture_closed,
    witness_expectation_gaussian,
    witness_fock,
    witness_photon_added_closed,
)
from cventangle import cli, crosscheck, fock
from cventangle.errors import require_mixture
from cventangle.fock import (
    FockDensityMatrix,
    _check_deficit,
    _component_labels,
    _from_entries,
    _index_dtype,
    _log_cosh,
    _log_factorials,
    _mirrors,
    _permuted_rows_cols,
    _require_cutoff,
    _squeezer_ladders,
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


def dense_state(cutoff: int, m: np.ndarray, deficit: float = 0.0) -> FockDensityMatrix:
    """Reference way in: the state (m + m^H)/2 of a dense matrix, through the
    builders' constructor core on the union pattern of m and m^T, so an entry
    whose mirror is 0 brings that explicit zero along."""
    m = np.asarray(m)
    support = np.flatnonzero((m != 0) | (m.T != 0))
    return _from_entries(cutoff, support, m.ravel()[support], deficit)


def dense(rho: FockDensityMatrix) -> np.ndarray:
    """Reference way out: the dense (N+1)^2 x (N+1)^2 matrix of rho."""
    n = rho.dim**2
    m = np.zeros(n * n, dtype=rho.values.dtype)
    m[rho.support] = rho.values
    return m.reshape(n, n)


def expectation_two_mode(rho: FockDensityMatrix, A: np.ndarray, B: np.ndarray) -> complex:
    """Tr[rho (A x B)] without forming the Kronecker product."""
    d = rho.dim
    rho4 = dense(rho).reshape(d, d, d, d)
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
    m = dense(rho)
    assert np.abs(m - m.conj().T).max() < 1e-12
    assert abs(np.trace(m).real - trace) < 1e-10
    assert np.linalg.eigvalsh(m).min() > -1e-10


class TestTmsv:
    def test_zero_squeezing_is_vacuum(self):
        rho = tmsv_fock(0.0, 10)
        expected = np.zeros((121, 121))
        expected[0, 0] = 1.0
        assert np.array_equal(dense(rho).real, expected)
        assert rho.trace_deficit == 0.0

    def test_schmidt_amplitudes(self):
        r, cutoff = 0.6, 20
        rho = tmsv_fock(r, cutoff)
        d = cutoff + 1
        for k in (0, 1, 5):
            amp = math.tanh(r) ** k / math.cosh(r)
            assert abs(dense(rho)[k * (d + 1), 0].real - amp / math.cosh(r)) < 1e-9

    def test_purity_one(self):
        rho = tmsv_fock(0.6, 30)
        assert abs(np.trace(dense(rho) @ dense(rho)).real - 1.0) < 1e-10
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

    def test_nan_squeezing_refused_up_front(self):
        with pytest.raises(InvalidArgumentError, match="squeezing must be nonnegative, got nan"):
            tmsv_fock(math.nan, 8)


class TestSqueezedThermal:
    def test_matches_tmsv_at_zero_thermal(self):
        a = dense(squeezed_thermal_fock(0.0, 0.6, 15))
        b = dense(tmsv_fock(0.6, 15))
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
        assert abs(dense(rho)[0, 0].real - 1.0) < 1e-12

    def test_intended_trace(self):
        p, a1, a2 = 0.6, 1.0, -1.0
        rho = coherent_mixture_fock(p, a1, a2, 25)
        expected = 1.0 - p * math.exp(-abs(a1 - a2) ** 2)
        assert abs(np.trace(dense(rho)).real - expected) < 1e-12
        assert np.linalg.eigvalsh(dense(rho)).min() > -1e-12

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
        assert dense(rho).dtype == np.float64
        assert np.abs(dense(rho) - reference).max() < 1e-15


class TestPhotonAdded:
    def test_zero_params_is_single_photon(self):
        rho = photon_added_sts_fock(0.0, 0.0, 10)
        d = 11
        expected = np.zeros((d * d, d * d))
        expected[1, 1] = 1.0  # |0>_1 |1>_2
        assert np.abs(dense(rho) - expected).max() < 1e-12
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

    def test_squeezer_factor_overflow_is_exact_zero(self):
        # -s (2m + delta + 1) overflows a double for s ~ 1e308; the factor
        # exp(-s (2m + delta + 1)) is then exactly 0, with no overflow warning
        ladder, lowering = _squeezer_ladders(1e308, 4, _log_factorials(4))
        assert np.isfinite(ladder).all()
        assert not lowering.any()
        with pytest.raises(TruncationError, match="trace deficit 1 "):
            squeezed_thermal_fock(0.2, 1e308, 4)


class TestHugeCoherentAmplitude:
    """Past |alpha| ~ 1.3e154, |alpha|^2 overflows a double: it is read as inf,
    so e^{-|alpha|^2} and every Fock amplitude are exactly 0."""

    @pytest.mark.parametrize("alpha", [1e200, -1e200j, 1e308 + 1e308j, 1.4e154])
    def test_amplitudes_vanish(self, alpha):
        amps = coherent_amplitudes(alpha, 8)
        assert amps.dtype == np.float64 and not amps.any()

    @pytest.mark.parametrize("alpha", [1e200, 1e308 + 1e308j])
    def test_mixture_refused_as_truncation(self, alpha):
        with pytest.raises(TruncationError, match="trace deficit 0.5 "):
            coherent_mixture_fock(0.5, alpha, 0.0, 8)

    @pytest.mark.parametrize("slot", [1, 2])
    def test_overflowing_modulus_refused_as_truncation(self, slot):
        # |alpha| = 2.4e308 itself leaves the double range, where abs() raises
        alphas = [0.0, 0.0]
        alphas[slot - 1] = 1.7e308 + 1.7e308j
        with pytest.raises(TruncationError, match="trace deficit 0.25 ") as info:
            coherent_mixture_fock(0.25, *alphas, 8)
        assert f"|alpha{slot}|=inf" in str(info.value)
        assert witness_coherent_mixture_closed(0.25, *alphas) == 0.25
        assert swap_expectation_coherent_mixture(0.25, *alphas) == 0.5


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
            rho = dense_state(cutoff, np.outer(psi, psi.conj()), 0.0)
            expected = math.exp(-abs(complex(a1) - complex(a2)) ** 2)
            assert abs(witness_fock(rho, "SWAP") - expected) < 1e-10
            assert witness_fock(rho, "SWAP") >= 0.0

    def test_swap_operator_is_permutation(self):
        V = witness_operator("SWAP", 3)
        assert np.array_equal(V @ V, np.eye(16))
        psi = np.kron(coherent_amplitudes(0.4, 3), coherent_amplitudes(-0.2, 3))
        swapped = np.kron(coherent_amplitudes(-0.2, 3), coherent_amplitudes(0.4, 3))
        assert np.allclose(V @ psi, swapped, atol=1e-15)

    @pytest.mark.parametrize("which", ["PPT", 1, None])
    def test_unknown_operator(self, which):
        with pytest.raises(InvalidArgumentError, match="unknown witness operator"):
            witness_fock(tmsv_fock(0.0, 8), which)


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
            return dense_state(cutoff, np.outer(e, e) / d, 0.0)

        norms = [realignment_trace_norm_fock(corr_state(c)) for c in (4, 8, 12)]
        assert norms[0] < norms[1] < norms[2]
        # exact: the correlated projector realigns to norm (N+1)
        assert abs(norms[0] - 5.0) < 1e-10


class TestNegativity:
    def test_product_state_is_zero(self):
        cutoff = 15
        psi = np.kron(coherent_amplitudes(0.7, cutoff), coherent_amplitudes(-0.4, cutoff))
        rho = dense_state(cutoff, np.outer(psi, psi.conj()), 0.0)
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


BUILDERS = {
    "tmsv": lambda cutoff: tmsv_fock(0.3, cutoff),
    "squeezed_thermal": lambda cutoff: squeezed_thermal_fock(0.2, 0.3, cutoff),
    "photon_added": lambda cutoff: photon_added_sts_fock(0.2, 0.3, cutoff),
    "coherent_mixture": lambda cutoff: coherent_mixture_fock(0.5, 1.0, -1.0, cutoff),
}
BUILDS = pytest.mark.parametrize("build", list(BUILDERS.values()), ids=list(BUILDERS))


class TestBuilderArguments:
    @pytest.mark.parametrize("cutoff", [3, -3])
    @BUILDS
    def test_cutoff_below_4_rejected(self, build, cutoff):
        with pytest.raises(InvalidArgumentError, match="cutoff"):
            build(cutoff)

    @pytest.mark.parametrize("cutoff", [8.0, "8", None, True, np.True_],
                             ids=["float", "str", "none", "bool", "numpy-bool"])
    @BUILDS
    def test_non_integer_cutoff_rejected(self, build, cutoff):
        with pytest.raises(InvalidArgumentError, match="cutoff must be an integer"):
            build(cutoff)

    @pytest.mark.parametrize("cutoff", [-3, 0, 3, np.int64(3), 8.0, "8", None, True, np.True_],
                             ids=["negative", "zero", "three", "numpy-three", "float", "str",
                                  "none", "bool", "numpy-bool"])
    @pytest.mark.parametrize(
        "build", [*BUILDERS.values(), lambda cutoff: crosscheck.run_verification(cutoff, 0.3)],
        ids=[*BUILDERS, "verify"])
    def test_one_cutoff_message(self, build, cutoff):
        # every builder and verify refuse a cutoff that is not an integer >= 4 alike
        with pytest.raises(InvalidArgumentError) as info:
            build(cutoff)
        assert str(info.value) == f"cutoff must be an integer >= 4, got {cutoff!r}"

    @BUILDS
    def test_numpy_integer_cutoff_accepted(self, build):
        rho, reference = build(np.int64(8)), build(8)
        assert type(rho.cutoff) is int and rho.cutoff == 8
        assert rho.support.dtype == reference.support.dtype
        assert np.array_equal(rho.support, reference.support)
        assert rho.values.tobytes() == reference.values.tobytes()

    @pytest.mark.parametrize("build", [
        lambda: squeezed_thermal_fock(math.inf, 0.3, 8),
        lambda: photon_added_sts_fock(math.inf, 0.3, 8),
    ], ids=["thermal-inf-n", "added-inf-n"])
    def test_nan_trace_deficit_refused(self, build):
        # a NaN normalizer leaves the trace deficit NaN; the builder refuses it
        with pytest.raises(InvalidArgumentError, match="trace deficit"):
            build()

    def test_builders_are_the_only_way_in(self):
        with pytest.raises(TypeError):
            FockDensityMatrix(4, np.eye(25) / 25, 0.0)
        assert not hasattr(FockDensityMatrix, "matrix")


def dense_negativity(rho: FockDensityMatrix) -> float:
    """Reference: every eigenvalue of the whole partial transpose at once."""
    d = rho.dim
    pt = dense(rho).reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)
    return float(np.abs(np.linalg.eigvalsh(pt)).sum() - 1.0)


def dense_realignment(rho: FockDensityMatrix) -> float:
    """Reference: every singular value of the whole realigned matrix at once."""
    d = rho.dim
    R = dense(rho).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    return float(np.linalg.svd(R, compute_uv=False).sum())


def reference_labels(u: np.ndarray, v: np.ndarray, nodes: int) -> np.ndarray:
    """Reference component labels (smallest node of each component): every
    node and its root hook onto the smallest label across its edges, over
    all edges in every sweep, until nothing moves."""
    label = np.arange(nodes)
    while True:
        hooked, reach = label.copy(), label[v]
        np.minimum.at(hooked, label[u], reach)
        np.minimum.at(hooked, u, reach)
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, label):
            return label
        label = hooked


def column_square_sums(m4: np.ndarray) -> np.ndarray:
    """Sum of |m|^2 down each column of the (d^2, d^2) matrix whose 4-index
    view is ``m4``, added one row at a time in ascending row order: the
    order in which a ``bincount`` over the sorted support meets a column's
    entries, for both index maps."""
    d = m4.shape[0]
    total = np.zeros(d * d)
    for i in range(d):
        for j in range(d):
            row = m4[i, j].ravel()
            total += row.real * row.real + (row.imag * row.imag if np.iscomplexobj(row) else 0.0)
    return total


def reference_dropped_nodes(rho: FockDensityMatrix, axes: tuple, hermitian: bool) -> np.ndarray:
    """Reference node rule, from the dense matrix M: the longest run of
    nodes, in the stable order of their bounds (2 ||col||_2 of a Hermitian
    M, ||row||_2 and ||col||_2 otherwise), whose bounds sum to at most
    2^-52 ||rho||_F."""
    d = rho.dim
    m4 = dense(rho).reshape(d, d, d, d).transpose(axes)
    squares = column_square_sums(m4)
    if not hermitian:
        squares = np.concatenate([column_square_sums(m4.transpose(2, 3, 0, 1)), squares])
    budget = 2.0**-52 * math.sqrt(squares.sum() if hermitian else squares.sum() / 2.0)
    bounds = np.sqrt(squares) * (2.0 if hermitian else 1.0)
    order = np.argsort(bounds, kind="stable")
    return order[:np.searchsorted(np.cumsum(bounds[order]), budget, side="right")]


def reference_star_merge(rows: np.ndarray, cols: np.ndarray, square: np.ndarray,
                         hermitian: bool) -> tuple[dict, list]:
    """Reference star merge on the entries (``rows``, ``cols``) of M, in
    support order, of squared moduli ``square``.  A leaf is a node holding
    one entry, off the diagonal: a column of a Hermitian M, otherwise a row
    or a column.  The leaves that share that entry's other end, two or more,
    merge into the smallest, whose entries become the square root of their
    ``square`` added one at a time in support order.  Returns {leaf that
    stays: its value} and the leaves merged away."""
    held = {}
    for e, (r, c) in enumerate(zip(rows.tolist(), cols.tolist())):
        for node in (c,) if hermitian else (r, c):
            held.setdefault(node, []).append(e)
    stars = {}
    for node, es in sorted(held.items()):
        if len(es) == 1 and rows[es[0]] != cols[es[0]]:
            hub = int(rows[es[0]] if cols[es[0]] == node else cols[es[0]])
            stars.setdefault(hub, []).append((node, es[0]))
    stays, merged = {}, []
    for leaves in stars.values():
        if len(leaves) > 1:
            total = 0.0
            for _, e in sorted(leaves, key=lambda leaf: leaf[1]):
                total += float(square[e])
            stays[leaves[0][0]] = math.sqrt(total)
            merged += [node for node, _ in leaves[1:]]
    return stays, merged


def dense_gather_trace_norm(rho: FockDensityMatrix, axes: tuple, hermitian: bool) -> float:
    """Reference for the sector kernels: the same node rule, star merge,
    components, block order and stacked LAPACK calls, with the node norms
    summed and every block gathered from the dense matrix.  Equal blocks give equal
    bits, so the kernels must match it exactly."""
    d = rho.dim
    n = d * d
    flat = dense(rho).ravel()
    step = np.array([d**3, d**2, d, 1])[list(axes)]
    index = np.unravel_index(rho.support, (d,) * 4)
    rows = index[axes[0]] * d + index[axes[1]]
    cols = index[axes[2]] * d + index[axes[3]] + (0 if hermitian else n)
    alive = np.ones(n if hermitian else 2 * n, dtype=bool)
    alive[reference_dropped_nodes(rho, axes, hermitian)] = False
    kept = alive[rows] & alive[cols]
    rows, cols, entries = rows[kept], cols[kept], rho.support[kept]
    v = flat[entries]
    stays, merged = reference_star_merge(rows, cols, v.real * v.real + v.imag * v.imag, hermitian)
    alive[merged] = False
    kept = alive[rows] & alive[cols]
    rows, cols, entries = rows[kept], cols[kept], entries[kept]
    flat = flat.copy()
    for leaf, value in stays.items():
        flat[entries[(rows == leaf) | (cols == leaf)]] = value
    if hermitian:
        label = reference_labels(rows, cols, n)
        sides = (label, label)
    else:
        label = reference_labels(np.concatenate([rows, cols]), np.concatenate([cols, rows]), 2 * n)
        sides = (label[:n], label[n:])
    counts = [np.bincount(side, minlength=label.size) for side in sides]
    orders = [np.argsort(side, kind="stable") for side in sides]
    starts = [np.cumsum(c) - c for c in counts]
    shapes = np.stack(counts, axis=1)
    shapes[~alive] = 0  # a dropped node is a component of its own, and no block
    total = 0.0
    for a, b in np.unique(shapes[shapes.min(axis=1) > 0], axis=0):
        comps = np.flatnonzero((shapes[:, 0] == a) & (shapes[:, 1] == b))
        ri = orders[0][starts[0][comps, None] + np.arange(a)]
        ci = orders[1][starts[1][comps, None] + np.arange(b)]
        (r0, r1), (c0, c1) = np.divmod(ri, d), np.divmod(ci, d)
        blocks = flat[(r0 * step[0] + r1 * step[1])[:, :, None]
                      + (c0 * step[2] + c1 * step[3])[:, None, :]]
        if a == b == 1:
            total += np.abs(blocks).sum()
        elif hermitian:
            total += np.abs(np.linalg.eigvalsh(blocks)).sum()
        else:
            total += np.linalg.svd(blocks, compute_uv=False).sum()
    return float(total)


def dense_witness(rho: FockDensityMatrix, which: str) -> float:
    """Reference: W01 and SWAP as index sums over the dense matrix."""
    d, m = rho.dim, dense(rho)
    if which == "W01":
        diag = np.arange(d) * (d + 1)
        return float(complex(np.trace(m) - m[np.ix_(diag, diag)].sum()).real)
    return float(complex(np.einsum("ijji->", m.reshape(d, d, d, d))).real)


def assert_kernels_match_reference(rho: FockDensityMatrix):
    """Negativity, realigned trace norm, W01 and SWAP equal their dense
    references bit for bit."""
    assert negativity_fock(rho) == dense_gather_trace_norm(rho, (0, 3, 2, 1), True) - 1.0
    assert realignment_trace_norm_fock(rho) == dense_gather_trace_norm(rho, (0, 2, 1, 3), False)
    for which in ("W01", "SWAP"):
        assert witness_fock(rho, which) == dense_witness(rho, which)


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
        rho = dense_state(cutoff, G @ G.conj().T / np.trace(G @ G.conj().T).real, 0.0)
        assert n_components(dense(rho), bipartite=False) == 1
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
            rho = dense_state(cutoff, matrix, 0.0)
            pt = dense(rho).reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)
            R = dense(rho).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
            assert n_components(pt, bipartite=False) == 2 * d - 1 - merged
            assert n_components(R, bipartite=True) == 2 * d - 1 - 2 * merged
            assert_sectors_match_dense(rho)

    @pytest.mark.parametrize("factor", [1 - 2**-10, 1 + 2**-10], ids=["under", "over"])
    @pytest.mark.parametrize("axes,hermitian,corner,kept_over,block_over", [
        ((0, 3, 2, 1), True, {4}, {4}, (2, 2)),  # node |0,4> holds x alone and weighs 2x
        # columns |0,4>, |4,0> hold x each; over the budget, |4,0> and |0,0>
        # hold the only entries of their columns in row |0,0>, and merge
        ((0, 2, 1, 3), False, {29, 45}, {45}, (1, 1)),
    ], ids=["partial", "realigned"])
    def test_weak_corner_at_the_budget(self, factor, axes, hermitian, corner, kept_over,
                                       block_over):
        # |00> and |11> at weight 1/2 set ||rho||_F = sqrt(1/2), and a coupling x
        # of |00> to |04> puts a weight of factor * budget in the corner
        budget = 2.0**-52 * math.sqrt(0.5)
        m = np.zeros((25, 25))
        m[0, 0] = m[6, 6] = 0.5
        m[0, 4] = m[4, 0] = factor * budget / 2
        rho = dense_state(4, m)
        rows, cols = _permuted_rows_cols(rho.support, 5, axes)
        if not hermitian:
            cols += 25
        dropped, holds_entries = fock._dropped_nodes(
            rows, cols, rho.values, 25 if hermitian else 50, hermitian)
        dropped = set(dropped.tolist())
        assert dropped == set(reference_dropped_nodes(rho, axes, hermitian).tolist())
        assert dropped & corner == (corner if factor < 1 else corner - kept_over)
        assert holds_entries == bool(dropped & corner)
        # no dropped node makes a block: |00> (with what it keeps of the corner) and |11>
        _flat, _values, a, b = fock._blocks(rho, axes, hermitian)
        assert sorted(zip(a.tolist(), b.tolist())) == [(1, 1), (1, 1) if factor < 1 else block_over]
        assert_kernels_match_reference(rho)
        assert_sectors_match_dense(rho)


@st.composite
def small_amplitudes(draw):
    """A coherent amplitude of modulus 1e-3 to 0.3: real, imaginary or complex."""
    modulus = draw(st.floats(1e-3, 0.3)) * draw(st.sampled_from([1.0, -1.0]))
    kind = draw(st.sampled_from(["real", "imaginary", "complex"]))
    if kind == "real":
        return modulus
    if kind == "imaginary":
        return complex(0.0, modulus)
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    return modulus * complex(math.cos(angle), math.sin(angle))


class TestAmplitudeBudget:
    """The coherent mixture leaves phi's negligible amplitudes out of its
    outer product; every oracle value stays within 1e-12 of the full
    pattern's dense references."""

    @pytest.mark.parametrize("p,alpha1,alpha2,cutoff", [
        (1.0, 0.3, -0.3, 24), (0.5, 1e-3, 0.3j, 8), (0.6, 0.2 + 0.1j, -0.05, 16), (0.3, 0.3, 0.0, 24),
    ])
    def test_rule_drops_amplitudes_here(self, p, alpha1, alpha2, cutoff):
        c1, c2 = coherent_amplitudes(alpha1, cutoff), coherent_amplitudes(alpha2, cutoff)
        phi = (np.kron(c1, c2) - np.kron(c2, c1)) / math.sqrt(2.0)
        kept = np.count_nonzero(phi) - len(negligible_amplitudes(phi, p, cutoff))
        assert 0 < kept < np.count_nonzero(phi)
        rho = coherent_mixture_fock(p, alpha1, alpha2, cutoff)
        assert rho.support.size == kept**2 + (p < 1)  # and the vacuum term
        assert rho.support.size < dense_coherent_mixture(p, alpha1, alpha2, cutoff).support.size

    @settings(max_examples=30, deadline=None, database=None)
    @given(p=st.one_of(st.sampled_from([0.0, 1.0]), unit), alpha1=small_amplitudes(),
           alpha2=small_amplitudes(), cutoff=st.integers(8, 24))
    def test_oracle_values_match_full_pattern(self, p, alpha1, alpha2, cutoff):
        try:
            rho = coherent_mixture_fock(p, alpha1, alpha2, cutoff)
        except InvalidArgumentError:  # a mixture of trace <= 1e-15
            reject()
        full = dense_coherent_mixture(p, alpha1, alpha2, cutoff)
        assert abs(negativity_fock(rho) - dense_negativity(full)) <= 1e-12
        assert abs(realignment_trace_norm_fock(rho) - dense_realignment(full)) <= 1e-12
        for which in ("W01", "SWAP"):
            assert abs(witness_fock(rho, which) - dense_witness(full, which)) <= 1e-12


class TestStarMerge:
    """Leaves that share their hub merge into one node of their 2-norm:
    a unitary map, so both kernels keep every eigenvalue and singular value."""

    @SECTORS
    @given(seed=st.integers(0, 2**32 - 1), cutoff=st.integers(4, 6), hermitian=st.booleans(),
           complex_=st.booleans())
    def test_stars_and_arrowheads_match_dense(self, seed, cutoff, hermitian, complex_):
        # M, the partial transpose or the realigned matrix, holds three stars:
        # leaf values of both signs, some below the node budget, some hubs
        # with a diagonal entry, some leaves with one (arrowheads)
        rng = np.random.default_rng(seed)
        d = cutoff + 1
        n = d * d
        axes = (0, 3, 2, 1) if hermitian else (0, 2, 1, 3)
        M = np.zeros((n, n), dtype=complex if complex_ else float)
        nodes = rng.permutation(n)
        pool = nodes[3:3 + rng.integers(6, n - 3)]
        for hub, leaves in zip(nodes[:3], np.array_split(pool, 3)):
            value = rng.normal(size=leaves.size) + (1j * rng.normal(size=leaves.size) if complex_ else 0)
            value[rng.random(leaves.size) < 0.3] *= 1e-20
            if hermitian or rng.random() < 0.5:
                M[hub, leaves] = value
            else:  # a star of rows sharing a column
                M[leaves, hub] = value
            if rng.random() < 0.5:
                M[hub, hub] = rng.normal()
            arrow = leaves[rng.random(leaves.size) < 0.3]
            M[arrow, arrow] = rng.normal(size=arrow.size)
        m = M.reshape(d, d, d, d).transpose(axes).reshape(n, n)
        # a Hermitian rho: the partial transpose becomes (M + M^H)/2, and the
        # realigned matrix gains the mirror of each star
        rho = dense_state(cutoff, (m + m.conj().T) / 2)
        assert_kernels_match_reference(rho)
        assert_sectors_match_dense(rho)

    def test_star64_blocks(self):
        # in the full pattern, the vacuum row of the partial transpose links
        # 4,097 nodes, and the realigned matrix holds the same star
        rho = coherent_mixture_fock(0.5, 0.0, 0.8, 64)
        for axes, hermitian in (((0, 3, 2, 1), True), ((0, 2, 1, 3), False)):
            _flat, _values, a, b = fock._blocks(rho, axes, hermitian)
            assert a.max() == b.max() == 26


class TestComponentLabels:
    @settings(max_examples=300, deadline=None, database=None)
    @given(nodes=st.integers(1, 40), data=st.data())
    def test_match_reference(self, nodes, data):
        # random undirected graphs, each edge listed both ways, some listed twice
        pairs = data.draw(st.lists(st.tuples(st.integers(0, nodes - 1), st.integers(0, nodes - 1)),
                                   max_size=80))
        a, b = np.array(pairs, dtype=np.int32).reshape(-1, 2).T
        u, v = np.concatenate([a, b]), np.concatenate([b, a])
        assert np.array_equal(_component_labels(u, v, nodes), reference_labels(u, v, nodes))

    def test_spent_edges_are_dropped_safely(self):
        # sweeps that also hook single nodes can pull a node away from the
        # rest of its label; dropping the edges inside each label after such
        # sweeps splits a component of this graph
        a = np.array([11, 16, 4, 16, 11, 16, 19, 5, 4, 3, 4, 19], dtype=np.int32)
        b = np.array([20, 20, 8, 20, 18, 9, 2, 17, 12, 13, 6, 18], dtype=np.int32)
        u, v = np.concatenate([a, b]), np.concatenate([b, a])
        assert np.array_equal(_component_labels(u, v, 21), reference_labels(u, v, 21))


@st.composite
def symmetric_entries(draw):
    """A state's entries for :func:`_from_entries` at a cutoff of 0 to 3: a
    sorted symmetric support, real or complex values off a Hermitian matrix by
    at most 1e-13 of its scale, explicit zeros on one side of some mirror
    pairs (facing at most 1e-14) and on both sides of others, and either no
    ``order`` or the valid one."""
    cutoff = draw(st.integers(0, 3))
    n = (cutoff + 1) ** 2
    cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))
    rows, cols = np.array(cells, dtype=np.int64).reshape(-1, 2).T
    support = np.unique(np.concatenate([rows * n + cols, cols * n + rows]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.normal(size=(n, n))
    if draw(st.booleans()):
        m = m + 1j * rng.normal(size=(n, n))
    m = m + m.conj().T + 1e-13 * rng.uniform(-1, 1, size=(n, n))
    row, col = np.divmod(support, n)
    upper = row <= col  # one cell of each mirror pair
    row, col = row[upper], col[upper]
    fate = rng.integers(0, 3, size=row.size)  # kept, 0 on one side, 0 on both sides
    swap = rng.random(row.size) < 0.5
    row, col = np.where(swap, col, row), np.where(swap, row, col)
    m[row[fate > 0], col[fate > 0]] = 0.0
    m[col[fate == 1], row[fate == 1]] = 1e-14
    m[col[fate == 2], row[fate == 2]] = 0.0
    m *= draw(st.sampled_from([1.0, 2.0**-1070]))  # subnormal pairs may halve to 0
    order = mirror_sort(support, n)[1] if draw(st.booleans()) else None
    return cutoff, support, m.ravel()[support], order


class TestConstructionGate:
    """The Hermiticity gate, the symmetrization and the non-finite check read
    only the entries and their mirrors; each must agree with the dense
    definition.  The constructor core takes a symmetric pattern, explicit
    zeros included, and refuses any other."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.1, math.nan)])
    def test_non_finite_entry_rejected(self, bad):
        m = np.zeros((25, 25), dtype=complex if isinstance(bad, complex) else float)
        m[0, 0] = 1.0
        m[3, 7] = m[7, 3] = bad
        with pytest.raises(InvalidArgumentError, match="finite"):
            dense_state(4, m, 0.0)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_one_sided_asymmetry_rejected(self, dtype):
        # the only asymmetry sits where the mirror entry is exactly 0
        m = np.eye(25, dtype=dtype) / 25
        m[2, 9] = 1e-9
        assert m[9, 2] == 0
        with pytest.raises(InvalidArgumentError, match="Hermitian"):
            dense_state(4, m, 0.0)

    @settings(max_examples=30, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), cutoff=st.integers(4, 6), complex_=st.booleans(),
           sparsity=st.sampled_from([0.0, 0.5, 0.95]), size=st.sampled_from([1.0, 2.0**-1070]))
    def test_symmetrization_is_dense_formula_bitwise(self, seed, cutoff, complex_, sparsity, size):
        rng = np.random.default_rng(seed)
        d2 = (cutoff + 1) ** 2
        G = rng.normal(size=(d2, d2)) + (1j * rng.normal(size=(d2, d2)) if complex_ else 0)
        G *= rng.random((d2, d2)) >= sparsity
        m = G @ G.conj().T / d2
        # break Hermiticity by at most 1e-13 of the largest entry: noise on the
        # nonzero entries, and a few one-sided entries whose mirror stays 0;
        # size 2^-1070 leaves only subnormal entries, some of which halve to 0
        scale = np.abs(m).max()
        m = m + 1e-13 * scale * rng.uniform(-1, 1, size=(d2, d2)) * (m != 0)
        m[(rng.random((d2, d2)) < 0.05) & (m == 0)] = 1e-14 * scale
        m *= size
        rho = dense_state(cutoff, m, 0.0)
        expected = (m + m.conj().T) / 2.0
        expected[expected == 0] = 0  # a zero is stored as +0
        assert dense(rho).dtype == expected.dtype
        assert dense(rho).tobytes() == expected.tobytes()
        assert np.array_equal(rho.support, np.flatnonzero(dense(rho)))
        assert_kernels_match_reference(rho)

    @SECTORS
    @given(rho=oracle_states())
    def test_support_is_nonzero_pattern(self, rho):
        assert np.array_equal(rho.support, np.flatnonzero(dense(rho)))
        assert np.array_equal(rho.values, dense(rho).ravel()[rho.support])
        for array in (rho.support, rho.values):
            assert not array.flags.writeable

    def test_subnormal_pair_averaging_to_zero_leaves_support(self):
        m = np.eye(25) / 25
        m[0, 1] = 5e-324  # the smallest subnormal; its mirror is exactly 0
        rho = dense_state(4, m, 0.0)
        assert dense(rho)[0, 1] == dense(rho)[1, 0] == 0.0
        assert 1 not in rho.support and 25 not in rho.support
        assert np.array_equal(rho.support, np.arange(25) * 26)

    @settings(max_examples=200, deadline=None, database=None)
    @given(case=symmetric_entries())
    def test_dense_formula_without_zeros_bitwise(self, case):
        cutoff, support, values, order = case
        rho = _from_entries(cutoff, support, values, 0.0, order)
        n = (cutoff + 1) ** 2
        m = np.zeros(n * n, dtype=values.dtype if values.imag.any() else float)
        m[support] = values.real if m.dtype == float else values  # real unless some entry is not
        m = m.reshape(n, n)
        expected = ((m + m.conj().T) / 2.0).ravel()
        nonzero = np.flatnonzero(expected)
        assert np.array_equal(rho.support, nonzero)
        assert rho.values.dtype == expected.dtype
        assert rho.values.tobytes() == expected[nonzero].tobytes()

    @pytest.mark.parametrize("support,order", [
        ([0, 1, 26], None),  # entry (0, 1) of a 25 x 25 matrix, without (1, 0)
        ([0, 1, 25, 26], [0, 1, 2, 3]),  # a symmetric pattern with a wrong pairing
    ], ids=["asymmetric-pattern", "wrong-order"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_unpaired_pattern_rejected(self, support, order, dtype):
        values = np.full(len(support), 0.25, dtype=dtype)
        with pytest.raises(InvalidArgumentError, match="not symmetric"):
            _from_entries(4, np.array(support), values, 0.0, order)


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
        assert dense(build()).dtype == np.float64

    def test_equality_is_identity(self):
        # a state holds arrays, so equality and hashing go by identity
        rho, again = tmsv_fock(0.3, 4), tmsv_fock(0.3, 4)
        assert rho == rho and not (rho == again) and rho != again
        assert {rho: "built", again: "rebuilt"}[rho] == "built"

    def test_complex_entries_stay_complex(self):
        rho = coherent_mixture_fock(0.6, 1.0, 0.5 + 0.5j, 20)
        assert dense(rho).dtype == np.complex128
        assert_valid_density_matrix(rho, trace=1.0 - 0.6 * math.exp(-abs(0.5 - 0.5j) ** 2))


# ---------------------------------------------------------------------------
# reference builders: each state assembled as a dense matrix and handed to the
# constructor core through ``dense_state``, against the builders' entry lists
# ---------------------------------------------------------------------------


def dense_tmsv(r, cutoff):
    r = float(r)
    if not r >= 0:
        raise InvalidArgumentError(f"squeezing must be nonnegative, got {r}")
    _require_cutoff(cutoff)
    d = cutoff + 1
    deficit = _check_deficit(math.tanh(r) ** (2 * (cutoff + 1)), f"TMSV r={r}")
    amps = np.array([math.tanh(r) ** k / math.cosh(r) for k in range(d)])
    amps /= np.linalg.norm(amps)
    rho = np.zeros((d * d, d * d))
    diag = np.arange(d) * (d + 1)
    rho[np.ix_(diag, diag)] = np.outer(amps, amps)
    return dense_state(cutoff, rho, deficit)


def negligible_amplitudes(phi: np.ndarray, p: float, cutoff: int) -> list[int]:
    """Reference amplitude rule: the indices of the longest run of phi's
    smallest nonzero amplitudes, in the stable order of |phi_a|^2, whose
    2-norm ||delta|| has 3 p ||phi|| ||delta|| <= 2^-52 ||rho||_F / (N+1),
    where ||rho||_F = hypot(1 - p, p ||phi||^2); the run's |phi_a|^2 are
    added one at a time."""
    nz = np.flatnonzero(phi)
    weight = (phi[nz] * phi[nz].conj()).real
    norm = math.sqrt(weight.sum())
    budget = 2.0**-52 * math.hypot(1.0 - p, p * norm * norm) / (cutoff + 1)
    run, total = [], 0.0
    for a in sorted(range(nz.size), key=lambda a: weight[a]):
        total += weight[a]
        if 3.0 * p * norm * math.sqrt(total) > budget:
            break
        run.append(int(nz[a]))
    return run


def dense_coherent_mixture(p, alpha1, alpha2, cutoff, amplitude_rule=False):
    """The mixture assembled densely over every amplitude of phi, or with
    the ``amplitude_rule`` applied to phi first (:func:`negligible_amplitudes`);
    the trace deficit is the full pattern's either way."""
    p, alpha1, alpha2, overlap = require_mixture(p, alpha1, alpha2)
    _require_cutoff(cutoff)
    intended_trace = 1.0 - p * overlap
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
    if amplitude_rule:
        phi[negligible_amplitudes(phi, p, cutoff)] = 0.0
        rho = np.outer(phi, phi.conj())
        rho *= p
        rho[0, 0] += 1.0 - p
    return dense_state(cutoff, rho, deficit)


def _squeezer_ladder_block(r: float, cutoff: int, delta: int, lg: np.ndarray) -> np.ndarray:
    """Action of exp(r (a1†a2† - a1 a2)) on the photon-number-difference-delta
    ladder: B[m, l] = <m+delta, m| U |l+delta, l>, truncated at the cutoff;
    ``lg`` holds log k! for k = 0 .. cutoff.  One ladder per call, each at
    its own size: the reference for the stacked ladders."""
    size = cutoff + 1 - delta
    t, s = math.tanh(r), _log_cosh(r)
    logt = math.log(t) if t > 0.0 else -math.inf
    m = np.arange(size)
    steps = m[None, :] - m[:, None]  # column index minus row index
    valid = steps >= 0
    st = np.clip(steps, 0, None)
    with np.errstate(invalid="ignore"):
        logmag = np.where(st == 0, 0.0, st * logt) - lg[st]
    half = 0.5 * (
        lg[m + delta][None, :] + lg[m][None, :] - lg[m + delta][:, None] - lg[m][:, None]
    )
    ladder = np.where(valid, np.exp(logmag + half), 0.0)
    lowering = ladder * np.where(st % 2 == 1, -1.0, 1.0)
    k0 = np.exp(-s * (2 * m + delta + 1))
    return ladder.T @ (k0[:, None] * lowering)


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
    return dense_state(cutoff, rho, deficit)


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
    return dense_state(cutoff, num, deficit)


DENSE_BUILDERS = {
    "tmsv_fock": dense_tmsv,
    "squeezed_thermal_fock": dense_squeezed_thermal,
    "photon_added_sts_fock": dense_photon_added,
    "coherent_mixture_fock": partial(dense_coherent_mixture, amplitude_rule=True),
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
    its state must be the dense assembly's bit for bit, and its kernels must
    read what the dense references read from that matrix."""

    @pytest.mark.parametrize("name,args,cutoff", EQUALITY_GRID,
                             ids=[f"{n}{a}-{c}" for n, a, c in EQUALITY_GRID])
    def test_bitwise_equal_to_dense_assembly(self, name, args, cutoff):
        built = build_or_refusal(getattr(fock, name), *args, cutoff)
        reference = build_or_refusal(DENSE_BUILDERS[name], *args, cutoff)
        if isinstance(reference, Exception):
            assert type(built) is type(reference) and str(built) == str(reference)
            return
        assert isinstance(built, FockDensityMatrix)
        assert dense(built).dtype == dense(reference).dtype
        assert dense(built).tobytes() == dense(reference).tobytes()
        assert np.array_equal(built.support, reference.support)
        assert repr(built.trace_deficit) == repr(reference.trace_deficit)
        assert_kernels_match_reference(built)

    @pytest.mark.parametrize("build,kernels", [
        (lambda: tmsv_fock(0.6, 40), ()),
        (lambda: squeezed_thermal_fock(0.2, 0.6, 40), ()),
        (lambda: photon_added_sts_fock(0.5, 0.6, 40), ()),
        (lambda: coherent_mixture_fock(0.6, 1.0, -1.0, 40), ()),
        (lambda: squeezed_thermal_fock(0.2, 0.6, 40), (negativity_fock,)),
        (lambda: squeezed_thermal_fock(0.2, 0.6, 40), (realignment_trace_norm_fock,)),
        (lambda: coherent_mixture_fock(0.6, 1.0, -1.0, 40), (negativity_fock,)),
        (lambda: coherent_mixture_fock(0.6, 1.0, -1.0, 40), (realignment_trace_norm_fock,)),
        (lambda: coherent_mixture_fock(0.6, 1.0, -1.0, 64), (negativity_fock,)),
        (lambda: coherent_mixture_fock(0.5, 0.0, 0.8, 64), (negativity_fock,)),
        (lambda: coherent_mixture_fock(0.5, 0.0, 0.8, 64), (realignment_trace_norm_fock,)),
    ], ids=["tmsv", "squeezed_thermal", "photon_added", "mixture", "squeezed_thermal-negativity",
            "squeezed_thermal-realignment", "mixture-negativity", "mixture-realignment",
            "mixture64-negativity", "star64-negativity", "star64-realignment"])
    def test_peak_memory_in_entry_bytes(self, build, kernels):
        # a real entry takes 12 bytes (an int32 index and a float64 value);
        # building the state and running a kernel on it may peak at 5 times
        # that, plus 1 MiB for the per-index tables of (N+1)^2 entries.  The
        # dense matrix alone takes 22.6 MB at cutoff 40 and 143 MB at 64.
        tracemalloc.start()
        try:
            rho = build()
            for kernel in kernels:
                kernel(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        entry_bytes = 12 * rho.support.size
        assert peak <= 5 * entry_bytes + 2**20, f"peak {peak / entry_bytes:.2f} entry bytes"

    @pytest.mark.parametrize("cutoff,dtype", [(214, np.int32), (215, np.int64)])
    def test_index_type_fits_the_cutoff(self, cutoff, dtype):
        # the (N+1)^4 flat indices outgrow int32 from cutoff 215 on
        rho = tmsv_fock(0.3, cutoff)
        assert rho.support.dtype == dtype
        assert abs(negativity_fock(rho) - (math.exp(0.6) - 1)) < 1e-12
        assert abs(realignment_trace_norm_fock(rho) - math.exp(0.6)) < 1e-12
        assert abs(witness_fock(rho, "W01") - (1 - math.exp(0.6))) < 1e-12
        assert witness_fock(rho, "SWAP") == 1.0

    @pytest.mark.parametrize("cutoff,rmax,code", [
        ("40", "0.6", 0), ("8", "0.3", 3), ("6", "0.6", 5),
        ("20", "1.0", 5), ("30", "0", 0), ("8", "1000", 3),
    ])
    def test_verify_output_equals_dense_assembly(self, cutoff, rmax, code, capsys, monkeypatch):
        argv = ["verify", "--cutoff", cutoff, "--rmax", rmax]
        assert cli.main(argv) == code
        built = capsys.readouterr().out
        # the full-pattern mixture: ``verify`` prints the bytes it reads
        for name, build in {**DENSE_BUILDERS, "coherent_mixture_fock": dense_coherent_mixture}.items():
            monkeypatch.setattr(fock, name, build)
        assert cli.main(argv) == code
        assert capsys.readouterr().out == built


def _digit(flat: np.ndarray, d: int, axis: int) -> np.ndarray:
    """Digit ``axis`` (0 to 3, most significant first) of the 4-digit
    base-``d`` numbers ``flat``: the reference for the floor-division digits."""
    return flat // d ** (3 - axis) % d


@st.composite
def symmetric_supports(draw):
    """A sorted flat-index support of a symmetric pattern in an n x n matrix."""
    n = draw(st.integers(1, 60))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=120))
    rows, cols = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    flat = np.unique(np.concatenate([rows * n + cols, cols * n + rows]))
    return flat.astype(draw(st.sampled_from([np.int32, np.int64]))), n


def mirror_sort(support: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The mirrored indices of ``support`` and their own stable argsort: the
    reference pairing."""
    row = support // n
    mirror = (support - row * n) * n + row
    return mirror, np.argsort(mirror, kind="stable")


class TestOracleMechanisms:
    """The stacked ladders, the radix mirror pairing and the floor-division
    index map must give what the ladder-by-ladder pass, the mirror sort and
    the per-digit map give, bit for bit."""

    @pytest.mark.parametrize("cutoff", [4, 12, 40, 64])
    @pytest.mark.parametrize("r", [0.0, 1e-3, 0.6, 1.0, 30.0])
    def test_stacked_ladders_equal_each_ladder(self, cutoff, r):
        lg = _log_factorials(cutoff)
        ladder, lowering = _squeezer_ladders(r, cutoff, lg)
        for delta in range(cutoff + 1):
            width = cutoff + 1 - delta
            product = ladder[delta, :width, :width].T @ lowering[delta, :width, :width]
            reference = _squeezer_ladder_block(r, cutoff, delta, lg)
            assert product.tobytes() == reference.tobytes(), f"delta {delta}"

    @settings(max_examples=200, deadline=None, database=None)
    @given(case=symmetric_supports())
    def test_radix_pairing_is_mirror_sort(self, case):
        support, n = case
        mirror, order = _mirrors(support, n)
        reference, reference_order = mirror_sort(support, n)
        assert mirror.dtype == support.dtype
        assert np.array_equal(mirror, reference)
        assert np.array_equal(order, reference_order)
        assert np.array_equal(mirror[order], support)

    @pytest.mark.parametrize("cutoff", [255, 256])
    def test_pairing_on_both_sides_of_16_bit_columns(self, cutoff):
        # (N+1)^2 = 65,536 column indices fit 16 bits at cutoff 255, not at 256
        rho = tmsv_fock(0.3, cutoff)
        d = cutoff + 1
        diag = np.arange(d) * (d + 1)
        assert np.array_equal(rho.support, (diag[:, None] * (d * d) + diag).ravel())
        mirror, order = _mirrors(rho.support, d * d)
        reference, reference_order = mirror_sort(rho.support, d * d)
        assert np.array_equal(mirror, reference) and np.array_equal(order, reference_order)
        transposed = rho.values.reshape(d, d).T.ravel()
        assert rho.values.tobytes() == transposed.tobytes()
        assert abs(witness_fock(rho, "W01") - (1 - math.exp(0.6))) < 1e-12

    @pytest.mark.parametrize("cutoff", [4, 40, 214, 215])
    @pytest.mark.parametrize("axes", [(0, 3, 2, 1), (0, 2, 1, 3)], ids=["partial", "realigned"])
    def test_divmod_map_equals_digit_map(self, cutoff, axes):
        d = cutoff + 1
        dtype = _index_dtype(cutoff)
        rng = np.random.default_rng(cutoff)
        flat = np.unique(np.concatenate([
            [0, d**4 - 1, d**3, d**2 - 1], rng.integers(0, d**4, size=5000)])).astype(dtype)
        rows, cols = _permuted_rows_cols(flat, d, axes)
        expected_rows = _digit(flat, d, axes[0]) * d + _digit(flat, d, axes[1])
        expected_cols = _digit(flat, d, axes[2]) * d + _digit(flat, d, axes[3])
        assert rows.dtype == cols.dtype == dtype
        assert np.array_equal(rows, expected_rows) and np.array_equal(cols, expected_cols)
