import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cventangle import (
    CoherentMixture,
    CovarianceMatrix,
    InvalidArgumentError,
    NumericDomainError,
    PhotonAddedSqueezedThermal,
    TwoModeStandardForm,
    TwoTwoFamilyParams,
    classify_two_two,
    family_threshold,
    is_physical,
    parse_state_descriptor,
    realignment_norm,
    squeezed_thermal_params,
    state_descriptor,
    tmsv_params,
    two_two_family,
)
from cventangle.symplectic import PHYSICALITY_TOL, symplectic_form
from conftest import (WignerSpec, is_ppt, moments_slice_integral, photon_added_sts_wigner,
                      random_standard_form, symplectic_eigenvalues, wigner_value)


def sts_wigner_reference(x1, p1, x2, p2, n, r):
    """Squeezed-thermal Wigner function written out directly (4/((1+2n)pi)^2
    Gaussian with cosh/sinh cross terms); the sign convention anchor."""
    m = 1.0 + 2.0 * n
    return (
        4.0
        / (m * np.pi) ** 2
        * np.exp(
            -2.0 * (x1**2 + p1**2 + x2**2 + p2**2) * np.cosh(2 * r) / m
            + 4.0 * (x1 * x2 - p1 * p2) * np.sinh(2 * r) / m
        )
    )


def photon_added_reference(x1, p1, x2, p2, n, r):
    """Full photon-added Wigner function, written out independently."""
    C, S = np.cosh(2 * r), np.sinh(2 * r)
    core = sts_wigner_reference(x1, p1, x2, p2, n, r)
    poly = (
        (x2 + 2 * n * x2 + x2 * C - x1 * S) ** 2
        + (p2 + 2 * n * p2 + p2 * C + p1 * S) ** 2
        - (1 + 2 * n) * (n + np.cosh(r) ** 2)
    )
    return core * poly / ((1 + 2 * n) ** 2 * (np.cosh(r) ** 2 + n * np.cosh(2 * r)))


class TestStandardTwoMode:
    def test_vacuum(self):
        V = TwoModeStandardForm(0.25, 0.25, 0.0, 0.0).covariance()
        assert np.array_equal(V.matrix, np.eye(4) / 4)

    def test_tmsv_physical_and_pure(self):
        V = TwoModeStandardForm(
            math.cosh(1.0) / 4, math.cosh(1.0) / 4, math.sinh(1.0) / 4, -math.sinh(1.0) / 4
        ).covariance()
        assert is_physical(V)
        assert np.allclose(symplectic_eigenvalues(V), [0.25, 0.25], atol=1e-10)

    def test_rejects_correlation_constraint(self):
        with pytest.raises(InvalidArgumentError, match="c1"):
            TwoModeStandardForm(0.5, 0.5, 0.6, 0.0).covariance()

    def test_rejects_below_vacuum(self):
        with pytest.raises(InvalidArgumentError, match="a >= 1/4"):
            TwoModeStandardForm(0.2, 0.5, 0.0, 0.0).covariance()

    def test_rejects_unphysical_despite_parameter_constraints(self):
        # ab >= c1^2 holds but the matrix violates V + iJ/4 >= 0
        with pytest.raises(InvalidArgumentError, match="physical"):
            TwoModeStandardForm(0.25, 0.25, 0.2, 0.0).covariance()


def _accepts(a, b, c1, c2) -> bool:
    try:
        TwoModeStandardForm(a, b, c1, c2)
    except InvalidArgumentError:
        return False
    return True


def _exactly_physical(a, b, c1, c2) -> bool:
    """Simon's conditions on the float inputs in exact rational arithmetic."""
    a, b, c1, c2 = (Fraction(x) for x in (a, b, c1, c2))
    d1, d2 = a * b - c1 * c1, a * b - c2 * c2
    return (d1 > 0 and d2 > 0 and 16 * d1 >= 1
            and 256 * d1 * d2 - 16 * (a * a + b * b + 2 * c1 * c2) + 1 >= 0)


class TestStandardFormGate:
    def test_agrees_with_eigen_solve(self):
        # random standard forms, plus thermal pairs under two-mode squeezing
        # whose symplectic eigenvalues sit within 1e-8 .. 1e-2 of 1/4 on
        # either side (near-pure states, where det M of the Schur complement
        # is the product of two small eigenvalues); compared wherever the
        # minimum eigenvalue of V + iJ/4 is clear of the eigen-solve's
        # tolerance
        rng = np.random.default_rng(7)
        n = 12_000
        a = 0.25 * rng.uniform(1.0, 12.0, n) ** rng.integers(1, 3, n)
        b = 0.25 * rng.uniform(1.0, 12.0, n) ** rng.integers(1, 3, n)
        c1, c2 = (rng.uniform(-1.05, 1.05, n) * np.sqrt(a * b) for _ in range(2))
        nu_a, nu_b = (0.25 + rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8, -2, n)
                      for _ in range(2))
        r = rng.uniform(0.0, 2.0, n)
        ch, sh = np.cosh(r), np.sinh(r)
        c = (nu_a + nu_b) * sh * ch
        params = np.concatenate([np.stack([a, b, c1, c2], 1),
                                 np.stack([nu_a * ch**2 + nu_b * sh**2,
                                           nu_a * sh**2 + nu_b * ch**2, c, -c], 1)])
        params = params[(params[:, 0] >= 0.25) & (params[:, 1] >= 0.25)]
        V = np.zeros((len(params), 4, 4))
        V[:, 0, 0] = V[:, 1, 1] = params[:, 0]
        V[:, 2, 2] = V[:, 3, 3] = params[:, 1]
        V[:, 0, 2] = V[:, 2, 0] = params[:, 2]
        V[:, 1, 3] = V[:, 3, 1] = params[:, 3]
        lowest = np.linalg.eigvalsh(V + 0.25j * symplectic_form(2)).min(axis=-1)
        clear = np.abs(lowest) > 1e-9
        assert clear.sum() >= 20_000
        assert 0.2 < (lowest[clear] < 0).mean() < 0.8
        accepted = np.array([_accepts(*p) for p in params[clear].tolist()])
        assert np.array_equal(accepted, lowest[clear] >= -PHYSICALITY_TOL)

    def test_accepts_every_exactly_physical_tmsv_input(self):
        # TMSV inputs rounded to floats are physical or not by rounding; every
        # one that is physical in exact arithmetic must be accepted
        checked = 0
        for k in range(240):
            r = 0.05 * k
            a, c = math.cosh(2 * r) / 4, math.sinh(2 * r) / 4
            for c1 in (c, -c):
                if _exactly_physical(a, a, c1, -c1):
                    checked += 1
                    assert _accepts(a, a, c1, -c1), r
        assert checked >= 200

    def test_squeezed_vacuum_accepted(self):
        # up to r = 9.35, where a - c drops below one ulp of a
        for r in np.arange(0.0, 9.35, 0.01).tolist():
            squeezed_thermal_params(0.0, r)

    def test_huge_variances_construct(self):
        # ab overflows; the realignment row then exits 3 (see test_cli)
        assert TwoModeStandardForm(1e200, 1e200, 0.0, 0.0).a == 1e200
        assert not _accepts(1e200, 1e200, 2e200, 0.0)
        assert not _accepts(1e200, 1e200, 0.0, -1e200)

    @pytest.mark.parametrize("ulps", [1, 2, 3, 4])
    def test_refuses_c1_ulps_below_sqrt_ab(self, ulps):
        # d1 is a few ulps; a physical state needs 16 d1 >= 1, and moving
        # a, b or c1 by two roundings does not give it that
        c1 = 1.0
        for _ in range(ulps):
            c1 = math.nextafter(c1, 0.0)
        assert not _accepts(1.0, 1.0, c1, 0.0)
        assert not _accepts(1.0, 1.0, 0.0, -c1)

    def test_near_degenerate_couplings(self):
        # one |c_i| within 1 .. 2^39 ulps of sqrt(ab), at scales up to 1e9:
        # every exactly physical input is accepted, and every accepted one
        # is exactly physical once a and b are raised by
        # 1000 u (max(a, b) + |c1| + |c2|), which covers the stated bound of
        # 192 u L on the Schur eigenvalue (times s)
        rng = np.random.default_rng(5)
        u = Fraction(2.0**-53)
        accepted = 0
        for _ in range(2000):
            a, b = 0.25 * 10.0 ** rng.uniform(0.0, 9.0, 2)
            s = math.sqrt(a * b)
            near = s * (1.0 - int(rng.integers(1, 2 ** int(rng.integers(1, 40)))) * 2.0**-53)
            c1, c2 = float(rng.choice([-1.0, 1.0]) * near), float(rng.uniform(-1.0, 1.0) * s)
            if rng.random() < 0.5:
                c1, c2 = c2, c1
            a, b = float(a), float(b)
            if not _accepts(a, b, c1, c2):
                assert not _exactly_physical(a, b, c1, c2), (a, b, c1, c2)
                continue
            accepted += 1
            raise_by = 1000 * u * (Fraction(max(a, b)) + abs(Fraction(c1)) + abs(Fraction(c2)))
            assert _exactly_physical(a + raise_by, b + raise_by, c1, c2), (a, b, c1, c2)
        assert 200 < accepted < 1800


class TestSqueezedThermalParams:
    def test_vacuum_limit(self):
        s = squeezed_thermal_params(0.0, 0.0)
        assert (s.a, s.b, s.c1, s.c2) == (0.25, 0.25, 0.0, 0.0)

    def test_printed_values(self):
        s = squeezed_thermal_params(1.0, 0.5)
        assert abs(s.a - 3 * math.cosh(1.0) / 4) < 1e-15
        assert abs(s.c1 - 3 * math.sinh(1.0) / 4) < 1e-15
        assert s.c2 == -s.c1
        assert abs(s.a - 1.1573) < 1e-4
        assert abs(s.c1 - 0.8814) < 1e-4

    def test_rejects_negative(self):
        with pytest.raises(InvalidArgumentError):
            squeezed_thermal_params(-0.1, 0.5)
        with pytest.raises(InvalidArgumentError):
            squeezed_thermal_params(0.1, -0.5)

    @pytest.mark.parametrize("n,r", [(0.0, 0.0), (0.0, 0.7), (1.0, 0.5), (2.0, 1.2)])
    def test_wigner_matches_reference_grid(self, n, r, rng):
        # fixes the sign of the cross terms: +x1x2, -p1p2
        spec = WignerSpec(squeezed_thermal_params(n, r).covariance())
        pts = rng.uniform(-1.5, 1.5, size=(40, 4))
        vals = wigner_value(spec, pts)
        ref = sts_wigner_reference(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3], n, r)
        assert np.max(np.abs(vals - ref)) < 1e-10

    def test_tmsv_alias(self):
        assert tmsv_params(0.5) == squeezed_thermal_params(0.0, 0.5)


class TestTwoTwoFamily:
    def test_uncorrelated_is_thermal_product(self):
        V = two_two_family(0.7, 0.9, 0.0)
        assert np.array_equal(V.matrix, np.diag([0.7] * 4 + [0.9] * 4))
        assert is_physical(V)

    def test_block_structure(self):
        V = two_two_family(1.0, 1.0, 0.3).matrix
        R = np.array([[1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0], [0, -1, 0, 0]], dtype=float)
        assert np.array_equal(V[:4, 4:], 0.3 * R)
        assert np.array_equal(V[4:, :4], 0.3 * R.T)

    def test_detected_point_physical_and_ppt(self):
        V = two_two_family(1.0, 1.0, 0.78)
        assert is_physical(V)
        assert is_ppt(V, modes_b=(2, 3))

    def test_above_threshold_unphysical(self):
        assert not is_physical(two_two_family(1.0, 1.0, 0.82))

    def test_rejects_below_vacuum(self):
        with pytest.raises(InvalidArgumentError):
            two_two_family(0.1, 1.0, 0.0)

    def test_params_covariance_is_the_family_matrix(self):
        # the general canonical-correlation route on the built matrix gives
        # the closed-form norm of classify_two_two, to the bit at this point
        V = TwoTwoFamilyParams(1.0, 1.0, 0.78).covariance()
        assert np.array_equal(V.matrix, two_two_family(1.0, 1.0, 0.78).matrix)
        assert realignment_norm(V).norm == classify_two_two(1.0, 1.0, 0.78).norm


class TestFamilyThreshold:
    def test_symmetric_unit_point(self):
        expected = math.sqrt(1.0 - math.sqrt(31.0 / 16.0) / 4.0)
        thr = family_threshold(1.0, 1.0)
        assert abs(thr - expected) < 1e-15
        assert abs(thr - 0.8074742889548395) < 1e-12

    def test_vacuum_admits_no_correlation(self):
        assert family_threshold(0.25, 0.25) == 0.0
        assert family_threshold(0.25, 1.7) == 0.0

    def test_algebraic_identity(self, rng):
        for _ in range(100):
            a, b = rng.uniform(0.25, 3.0, size=2)
            thr = family_threshold(a, b)
            assert abs(thr**2 + math.sqrt(a * a + b * b - 1 / 16) / 4 - a * b) < 1e-12

    def test_rejects_out_of_domain(self):
        with pytest.raises(InvalidArgumentError):
            family_threshold(0.2, 1.0)

    def test_bits_of_the_expanded_formula(self):
        # perfbench's state_eval draws |c| bit-equal to this expression and
        # expects the point to be physical: the threshold must keep its bits
        rng = np.random.default_rng(7)
        for a, b in rng.uniform(0.5, 2.0, size=(10_000, 2)).tolist():
            assert family_threshold(a, b) == math.sqrt(a * b - math.sqrt(a * a + b * b - 1 / 16) / 4)

    def test_threshold_lost_to_rounding_is_numeric(self):
        # the exact radicand (16a^2 - 1)(16b^2 - 1)/256 is never negative: a
        # NaN threshold past the vacuum check is rounding (a = 1/4) or
        # overflow (a^2 at a = 1e160), never invalid input
        for a, b in [(24618077.110105123, 0.25), (1e160, 0.3)]:
            for args in ((a, b), (b, a)):
                with pytest.raises(NumericDomainError, match="lost to rounding"):
                    family_threshold(*args)
        rng = np.random.default_rng(8)
        lost = 0
        for b in (10.0 ** rng.uniform(0.0, 12.0, size=20_000)).tolist():
            try:
                family_threshold(0.25, b)
            except NumericDomainError:
                lost += 1
        assert lost > 0


class TestPhotonAddedWigner:
    def test_origin_value_single_photon(self):
        spec = photon_added_sts_wigner(0.0, 0.0)
        assert abs(wigner_value(spec, np.zeros(4)) - (-4.0 / math.pi**2)) < 1e-14

    @pytest.mark.parametrize("n,r", [(0.0, 0.0), (1.0, 1.0), (0.3, 0.7), (2.0, 0.2)])
    def test_matches_reference_pointwise(self, n, r, rng):
        spec = photon_added_sts_wigner(n, r)
        pts = rng.uniform(-1.2, 1.2, size=(50, 4))
        ref = photon_added_reference(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3], n, r)
        assert np.max(np.abs(wigner_value(spec, pts) - ref)) < 1e-12

    @pytest.mark.parametrize("n,r", [(0.0, 0.0), (1.0, 1.0), (0.5, 0.3)])
    def test_normalization(self, n, r):
        spec = photon_added_sts_wigner(n, r)
        assert abs(moments_slice_integral(spec, np.eye(4)) - 1.0) < 1e-12

    def test_gaussian_core_is_squeezed_thermal(self):
        spec = photon_added_sts_wigner(0.7, 0.4)
        core = squeezed_thermal_params(0.7, 0.4).covariance()
        assert np.allclose(spec.covariance.matrix, core.matrix, atol=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(InvalidArgumentError):
            photon_added_sts_wigner(-0.1, 0.0)


class TestWignerSpec:
    def test_plain_gaussian_normalizes(self, rng):
        for _ in range(10):
            spec = WignerSpec(random_standard_form(rng).covariance())
            assert abs(moments_slice_integral(spec, np.eye(4)) - 1.0) < 1e-12

    def test_rejects_bad_poly(self):
        cov = CovarianceMatrix(np.eye(4) / 4)
        with pytest.raises(InvalidArgumentError):
            WignerSpec(covariance=cov, poly={(1, 0): 1.0})


class TestDescriptors:
    @pytest.mark.parametrize(
        "doc",
        [
            {"family": "standard2", "a": 0.5, "b": 0.5, "c1": 0.3, "c2": -0.3},
            {"family": "two_two", "a": 1.0, "b": 1.0, "c": 0.78},
            {"family": "photon_added_sts", "n": 1.0, "r": 1.0},
            {"family": "coherent_mixture", "p": 0.6, "alpha1": [1.0, 0.0], "alpha2": [-1.0, 0.0]},
        ],
    )
    def test_roundtrip(self, doc):
        state = parse_state_descriptor(doc)
        assert parse_state_descriptor(state_descriptor(state)) == state

    @settings(max_examples=300, deadline=None, database=None)
    @given(a=st.one_of(st.floats(0.25, 1e300), st.floats()),
           b=st.one_of(st.floats(0.25, 1e300), st.floats()),
           c=st.one_of(st.floats(-1e300, 1e300), st.sampled_from([math.nan, math.inf, -math.inf]),
                       st.floats()))
    def test_two_two_roundtrip(self, a, b, c):
        # a 2+2 state that builds survives its descriptor round trip; a
        # non-finite a, b or c is refused when built, as the descriptor refuses it
        valid = a >= 0.25 and b >= 0.25 and all(map(math.isfinite, (a, b, c)))
        try:
            state = TwoTwoFamilyParams(a, b, c)
        except InvalidArgumentError:
            assert not valid
            return
        assert valid and parse_state_descriptor(state_descriptor(state)) == state

    @pytest.mark.parametrize("a,b,c", [(1.0, 1.0, math.nan), (1.0, 1.0, math.inf),
                                       (1.0, 1.0, -math.inf), (math.inf, 1.0, 0.0),
                                       (1.0, math.inf, 0.0)])
    def test_two_two_non_finite_refused(self, a, b, c):
        with pytest.raises(InvalidArgumentError, match="finite"):
            TwoTwoFamilyParams(a, b, c)
        with pytest.raises(InvalidArgumentError, match="finite"):
            parse_state_descriptor({"family": "two_two", "a": a, "b": b, "c": c})

    def test_raw_covariance_roundtrip(self):
        doc = state_descriptor(squeezed_thermal_params(0.2, 0.3).covariance())
        assert doc["family"] == "raw_covariance"
        cov = parse_state_descriptor(doc)
        assert isinstance(cov, CovarianceMatrix)

    def test_unknown_family(self):
        with pytest.raises(InvalidArgumentError):
            parse_state_descriptor({"family": "cat_state"})

    def test_malformed(self):
        with pytest.raises(InvalidArgumentError):
            parse_state_descriptor({"family": "standard2", "a": 0.5})

    def test_typed_wrappers_validate(self):
        with pytest.raises(InvalidArgumentError):
            TwoTwoFamilyParams(0.1, 1.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            PhotonAddedSqueezedThermal(-1.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            CoherentMixture(1.2, 1.0, -1.0)
