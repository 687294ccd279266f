import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from cventangle import (
    CoherentMixture,
    CovarianceMatrix,
    InvalidArgumentError,
    TwoModeStandardForm,
    coherent_mixture_fock,
    witness_coherent_mixture_closed,
    witness_fock,
    NumericDomainError,
    SingularLimitError,
    WitnessParams,
    detects_entanglement,
    optimal_witness,
    photon_added_sts_fock,
    realignment_norm_two_mode,
    squeezed_thermal_params,
    swap_expectation,
    swap_expectation_coherent_mixture,
    swap_photon_added_closed,
    tmsv_params,
    witness_expectation_gaussian,
    witness_photon_added_closed,
)
from cventangle.phase_space import slice_integral
from cventangle.realignment import standard_form_gaps
from conftest import (
    WignerSpec,
    is_ppt,
    moments_slice_integral,
    moments_swap,
    moments_witness,
    photon_added_sts_wigner,
    random_physical_cov,
    random_product_form,
    random_standard_form,
    two_mode_cov,
    wigner_value,
)


def closed_form_reference(s, mu1, mu2):
    """The standard-form expectation written out directly in the test."""
    mm, mp = mu1 - mu2, mu1 + mu2
    km = s.a + s.b * mm**2 + 2 * s.c1 * mm
    kp = s.a + s.b * mp**2 + 2 * s.c2 * mp
    return 1.0 - math.sqrt(abs(mm * mp)) / (2.0 * math.sqrt(km * kp))


def unvalidated_standard_form(a, b, c1, c2) -> TwoModeStandardForm:
    """A standard form built without its physicality test."""
    s = object.__new__(TwoModeStandardForm)
    for name, value in zip(("a", "b", "c1", "c2"), (a, b, c1, c2)):
        object.__setattr__(s, name, value)
    return s


def random_params(rng) -> WitnessParams:
    while True:
        mu1, mu2 = rng.uniform(-2.0, 2.0, size=2)
        if abs((mu1 - mu2) * (mu1 + mu2)) > 1e-3:
            return WitnessParams(mu1, mu2)


def rotated_mixed_cov() -> CovarianceMatrix:
    """A mixed two-mode state that is not in standard form."""
    return CovarianceMatrix(two_mode_cov((0.3, 0.45), 0.7, 0.4, ((0.3, (0.9, 0.0)),
                                                                (-0.2, (2.1, 0.0)))))


class TestWitnessParams:
    def test_rejects_degenerate(self):
        with pytest.raises(InvalidArgumentError):
            WitnessParams(1.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            WitnessParams(0.5, -0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["mu1", "mu2"])
    def test_rejects_non_finite(self, which, bad):
        # (nan, 1) and (inf, 0) used to pass the |mu- mu+| test and give NaN
        # witness values that read as "undetected"
        params = {"mu1": 0.0, "mu2": 1.0, which: bad}
        with pytest.raises(InvalidArgumentError, match=which):
            WitnessParams(**params)

    def test_derived_combinations(self):
        w = WitnessParams(0.25, 1.0)
        assert w.mu_minus == -0.75
        assert w.mu_plus == 1.25


class TestGaussianClosedForm:
    def test_vacuum_optimal_params_vanish(self):
        s = squeezed_thermal_params(0.0, 0.0)
        assert abs(witness_expectation_gaussian(s, WitnessParams(0.0, 1.0))) < 1e-15

    def test_balanced_form_printed_value(self):
        from cventangle import TwoModeStandardForm

        s = TwoModeStandardForm(0.5, 0.5, 0.3, -0.3)
        value = witness_expectation_gaussian(s, WitnessParams(0.0, 1.0))
        assert abs(value - (1.0 - 1.0 / (2 * 0.4))) < 1e-15
        assert abs(value + 0.25) < 1e-15

    def test_tmsv_value(self):
        value = witness_expectation_gaussian(tmsv_params(0.5), WitnessParams(0.0, 1.0))
        assert abs(value - (1.0 - math.e)) < 1e-12

    def test_domain_error_outside_contract(self):
        # unvalidated parameters can push K- negative, or both K- and K+ (a
        # positive determinant); either slice matrix must be refused
        for c2, w in ((0.0, WitnessParams(-0.6, 0.4)), (-0.5, WitnessParams(0.0, 1.0))):
            s = unvalidated_standard_form(0.25, 0.25, 0.5, c2)
            with pytest.raises(NumericDomainError, match="positive definite"):
                witness_expectation_gaussian(s, w)

    def test_matches_reference_sweep(self, rng):
        for _ in range(50):
            s = random_standard_form(rng)
            w = random_params(rng)
            got = witness_expectation_gaussian(s, w)
            assert abs(got - closed_form_reference(s, w.mu1, w.mu2)) < 1e-12


class TestOptimalWitness:
    def test_vacuum_tie_break(self):
        opt = optimal_witness(squeezed_thermal_params(0.0, 0.0))
        assert abs(opt.value) < 1e-15
        assert (opt.mu_minus, opt.mu_plus) == (-1.0, -1.0)

    def test_balanced_form(self):
        from cventangle import TwoModeStandardForm

        opt = optimal_witness(TwoModeStandardForm(0.5, 0.5, 0.3, -0.3))
        assert abs(opt.value + 0.25) < 1e-15
        assert (opt.mu_minus, opt.mu_plus) == (-1.0, 1.0)

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
    def test_tmsv_exponential(self, r):
        opt = optimal_witness(tmsv_params(r))
        assert abs(opt.value - (1.0 - math.exp(2 * r))) < 1e-10

    def test_optimum_attained_at_reported_parameters(self, rng):
        for _ in range(30):
            s = random_standard_form(rng, margin=1e-3)
            opt = optimal_witness(s)
            at_opt = witness_expectation_gaussian(s, WitnessParams(opt.mu1, opt.mu2))
            assert abs(at_opt - opt.value) < 1e-12

    def test_global_minimum_property(self, rng):
        for _ in range(200):
            s = random_standard_form(rng, margin=1e-3)
            opt = optimal_witness(s)
            w = random_params(rng)
            assert witness_expectation_gaussian(s, w) >= opt.value - 1e-10

    def test_separable_guard(self, rng):
        for _ in range(200):
            s = random_product_form(rng)
            assert optimal_witness(s).value >= -1e-12

    def test_thermal_product_closed_form(self, rng):
        # uncorrelated squeezed-thermal params (r = 0) give 2n/(1+2n), never negative
        for n in [0.0, 0.3, 1.0, 4.0]:
            opt = optimal_witness(squeezed_thermal_params(n, 0.0))
            assert abs(opt.value - 2 * n / (1 + 2 * n)) < 1e-12
            assert opt.value >= -1e-10

    def test_singular_limit(self):
        class Fake:
            a, b, c1, c2 = 0.5, 0.5, 0.5, 0.0
            _gaps = standard_form_gaps(a, b, (c1, c2))

        with pytest.raises(SingularLimitError):
            optimal_witness(Fake())

    def test_realignment_equivalence(self, rng):
        # value < 0 exactly when the realigned norm exceeds 1
        for _ in range(200):
            s = random_standard_form(rng, margin=1e-3)
            opt = optimal_witness(s).value
            norm = realignment_norm_two_mode(s)
            assert abs((1.0 - opt) - norm) < 1e-10
            if abs(opt) > 1e-9:
                assert (opt < 0) == (norm > 1)

    def test_simon_ppt_equivalence_symmetric(self, rng):
        # verdict agreement with the momentum-flip test for a = b states
        checked = 0
        for _ in range(300):
            s = random_standard_form(rng, symmetric=True, margin=1e-3)
            value = optimal_witness(s).value
            if abs(value) < 1e-8:
                continue
            assert (value < 0) == (not is_ppt(s.covariance(), modes_b=(1,)))
            checked += 1
        assert checked > 200


class TestWignerRoute:
    def test_vacuum(self):
        V = squeezed_thermal_params(0.0, 0.0).covariance()
        assert abs(witness_expectation_gaussian(V, WitnessParams(0.0, 1.0))) < 1e-9

    def test_tmsv_matches_closed_form(self):
        V = tmsv_params(0.5).covariance()
        value = witness_expectation_gaussian(V, WitnessParams(0.0, 1.0))
        assert abs(value - (1.0 - math.e)) < 1e-6

    def test_photon_added_all_routes_agree(self):
        spec = photon_added_sts_wigner(1.0, 1.0)
        w = WitnessParams(0.0, 1.0)
        closed = witness_photon_added_closed(1.0, 1.0)
        assert abs(moments_witness(spec, w) - closed) < 1e-10

    def test_against_scipy_quadrature(self):
        # independent oracle for the moments reference: raw 2-d integral of the
        # Wigner function slice
        spec = photon_added_sts_wigner(0.4, 0.3)
        w = WitnessParams(0.2, 0.9)

        def integrand(p, x):
            xi = np.array([-w.mu_minus * x, -w.mu_plus * p, x, p])
            return float(wigner_value(spec, xi))

        integral, err = integrate.dblquad(integrand, -8, 8, -8, 8, epsabs=1e-11)
        oracle = 1.0 - math.pi * math.sqrt(abs(w.mu_minus * w.mu_plus)) * integral
        assert err < 1e-8
        got = moments_witness(spec, w)
        assert abs(got - oracle) < 1e-7

    def test_determinant_against_scipy_quadrature(self):
        # the same oracle for the determinant route, at a general (mu1, mu2)
        # on a rotated mixed state that is not in standard form
        V = rotated_mixed_cov()
        spec = WignerSpec(V)
        w = WitnessParams(-0.35, 0.8)

        def integrand(p, x):
            xi = np.array([-w.mu_minus * x, -w.mu_plus * p, x, p])
            return float(wigner_value(spec, xi))

        integral, err = integrate.dblquad(integrand, -8, 8, -8, 8, epsabs=1e-11)
        oracle = 1.0 - math.pi * math.sqrt(abs(w.mu_minus * w.mu_plus)) * integral
        assert err < 1e-8
        assert abs(witness_expectation_gaussian(V, w) - oracle) < 1e-9

    def test_quadrature_vs_closed_sweep(self, rng):
        for _ in range(100):
            s = random_standard_form(rng, margin=1e-3)
            w = random_params(rng)
            closed = witness_expectation_gaussian(s, w)
            gh = witness_expectation_gaussian(s.covariance(), w)
            assert abs(gh - closed) <= 1e-6

    def test_matches_moments_reference(self, rng):
        for _ in range(100):
            V = random_physical_cov(rng, 2)
            w = random_params(rng)
            ref = moments_witness(WignerSpec(V), w)
            assert abs(witness_expectation_gaussian(V, w) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_requires_two_modes(self):
        single = CovarianceMatrix(np.eye(2) / 4)
        with pytest.raises(InvalidArgumentError):
            witness_expectation_gaussian(single, WitnessParams(0.0, 1.0))


class TestSliceIntegral:
    def test_matches_moments_reference(self, rng):
        for _ in range(100):
            V = random_physical_cov(rng, 2)
            d_minus, d_plus = rng.uniform(-2.0, 2.0, size=2)
            T = np.array([[-d_minus, 0.0], [0.0, -d_plus], [1.0, 0.0], [0.0, 1.0]])
            ref = math.pi * moments_slice_integral(WignerSpec(V), T)
            assert abs(slice_integral(V, d_minus, d_plus) - ref) <= 1e-12 * ref

    def test_body_rounding_against_mpmath(self, rng):
        # the exact 1 - sqrt|mu- mu+| / (2 sqrt(K- K+)) at 50 digits, on the
        # same float slice entries: what remains is the body's own rounding
        u = 2.0**-53
        with mpmath.workdps(50):
            for i in range(500):
                s = random_standard_form(rng, margin=1e-3)
                w = WitnessParams(0.0, 1.0) if i % 2 else random_params(rng)
                k_minus, _, _, k_plus = s.slice_matrix(w.mu_minus, w.mu_plus)
                exact = 1 - (mpmath.sqrt(abs(mpmath.mpf(w.mu_minus) * w.mu_plus))
                             / (2 * mpmath.sqrt(mpmath.mpf(k_minus) * k_plus)))
                error = abs(witness_expectation_gaussian(s, w) - exact)
                assert error <= 4 * u * max(1, abs(exact)), (s, w)

    def test_determinant_beyond_the_float_range(self):
        # det(2e200 I) = 4e400 overflows unscaled; pytest turns the numpy
        # overflow warning into an error
        from cventangle import TwoModeStandardForm

        V = TwoModeStandardForm(1e200, 1e200, 0.0, 0.0).covariance()
        assert abs(swap_expectation(V) * 4e200 - 1.0) <= 4 * 2.0**-53

    def test_refuses_an_overflowing_entry(self):
        # K = a + b d^2 overflows at a = b = 1e308; an infinite entry had read
        # as a zero integral (SWAP 0.0 against the exact 1/(2(a + b)) = 2.5e-309)
        s = TwoModeStandardForm(1e308, 1e308, 0.0, 0.0)
        with pytest.raises(NumericDomainError):
            swap_expectation(s)
        with pytest.raises(NumericDomainError):
            witness_expectation_gaussian(s, WitnessParams(0.0, 1.0))
        assert swap_expectation(TwoModeStandardForm(5e307, 5e307, 0.0, 0.0)) == 0.5 / 1e308

    @pytest.mark.parametrize("modes", [1, 3])
    def test_requires_two_modes(self, modes):
        with pytest.raises(InvalidArgumentError, match="two-mode"):
            slice_integral(CovarianceMatrix(np.eye(2 * modes) / 4), 1.0, 1.0)

    def test_refuses_negative_definite_slice(self):
        # S = -2 I has a positive determinant; Sylvester's s00 > 0 refuses it.
        # The expectations refuse the covariance first, as unphysical
        V = CovarianceMatrix(-np.eye(4))
        with pytest.raises(NumericDomainError, match="positive definite"):
            slice_integral(V, -1.0, -1.0)
        with pytest.raises(InvalidArgumentError, match="physicality"):
            swap_expectation(V)
        with pytest.raises(InvalidArgumentError, match="physicality"):
            witness_expectation_gaussian(V, WitnessParams(0.0, 1.0))
        with pytest.raises(NumericDomainError, match="positive definite"):
            swap_expectation(unvalidated_standard_form(0.25, 0.25, 0.5, 0.5))

    @pytest.mark.parametrize("c,d_minus", [(-0.5, 1.0), (-0.6, 1.0), (-0.5, math.nan)],
                             ids=["zero", "negative", "nan"])
    def test_refuses_nonpositive_determinant(self, c, d_minus):
        # at c = -1/2, x1 = -x2 exactly and the slice at d- = 1 carries no
        # Gaussian weight; c = -0.6 is not a covariance at all
        V = CovarianceMatrix(np.array([[0.5, 0, c, 0], [0, 0.5, 0, 0],
                                       [c, 0, 0.5, 0], [0, 0, 0, 0.5]]))
        with pytest.raises(NumericDomainError, match="slice determinant"):
            slice_integral(V, d_minus, 1.0)


def unit_or(lo, hi, *edges):
    """Floats on [lo, hi] with the given edge values drawn often."""
    return st.one_of(st.sampled_from(edges), st.floats(lo, hi))


@settings(max_examples=200, deadline=None, database=None)
@given(nu_a=unit_or(0.25, 2.0, 0.25), nu_b=unit_or(0.25, 2.0, 0.25), r=unit_or(0.0, 3.0, 0.0, 3.0),
       noise_a=unit_or(0.0, 1.0, 0.0), noise_b=unit_or(0.0, 1.0, 0.0),
       rho1=unit_or(-1.0, 1.0, -1.0, 0.0, 1.0), rho2=unit_or(-1.0, 1.0, -1.0, 0.0, 1.0),
       mu1=st.floats(-2.0, 2.0), mu2=st.floats(-2.0, 2.0))
def test_standard_form_slice_matches_covariance(nu_a, nu_b, r, noise_a, noise_b, rho1, rho2,
                                                mu1, mu2):
    # a thermal pair (nu_a, nu_b) under two-mode squeezing r plus classical
    # noise [[noise_a, e_i], [e_i, noise_b]] per quadrature, |e_i| <= the
    # geometric mean: always physical; a or b = 1/4 at nu = 1/4, r = 0, noise
    # 0, pure at nu_a = nu_b = 1/4 without noise, and |c_i| -> sqrt(ab) as r
    # grows or |rho_i| = 1
    ch, sh = math.cosh(r), math.sinh(r)
    c, e = (nu_a + nu_b) * sh * ch, math.sqrt(noise_a * noise_b)
    s = TwoModeStandardForm(nu_a * ch * ch + nu_b * sh * sh + noise_a,
                            nu_a * sh * sh + nu_b * ch * ch + noise_b, c + rho1 * e, -c + rho2 * e)
    V = s.covariance()
    if abs((mu1 - mu2) * (mu1 + mu2)) <= 1e-3:
        mu1, mu2 = 0.0, 1.0
    w = WitnessParams(mu1, mu2)

    def tol(d_minus, d_plus):
        # 1e-13 relative, or 16u per unit of the cancellation T / K in
        # K = a + b d^2 + 2 c d, T = a + b d^2 + 2 |c d|, which both routes round
        k_minus, _, _, k_plus = s.slice_matrix(d_minus, d_plus)
        cond = sum((s.a + s.b * d * d + 2 * abs(ci * d)) / k
                   for d, ci, k in ((d_minus, s.c1, k_minus), (d_plus, s.c2, k_plus)))
        return max(1e-13, 16 * 2.0**-53 * cond)

    ref = witness_expectation_gaussian(V, w)
    assert abs(witness_expectation_gaussian(s, w) - ref) <= (tol(w.mu_minus, w.mu_plus)
                                                             * max(1.0, abs(ref)))
    ref = swap_expectation(V)
    assert abs(swap_expectation(s) - ref) <= tol(-1.0, -1.0) * ref


class TestPhotonAddedClosedForm:
    def test_no_thermal_photons_undetected(self):
        assert witness_photon_added_closed(0.0, 0.7) == 1.0

    def test_detected_point(self):
        expected = 1 - math.exp(4) * 2 / (9 * (math.cosh(1) ** 2 + math.cosh(2)))
        got = witness_photon_added_closed(1.0, 1.0)
        assert abs(got - expected) < 1e-15
        assert abs(got - (-0.9749865698672611)) < 1e-12

    def test_undetected_corner(self):
        got = witness_photon_added_closed(0.02, 0.02)
        expected = 1 - math.exp(0.08) * 0.02 * 1.02 / (
            1.04**2 * (math.cosh(0.02) ** 2 + 0.02 * math.cosh(0.04))
        )
        assert abs(got - expected) < 1e-15
        assert abs(got - 0.9799769715656128) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(InvalidArgumentError):
            witness_photon_added_closed(-1.0, 0.0)


class TestPhotonAddedSwapClosedForm:
    def test_pure_members_zero(self):
        for r in [0.0, 0.5, 3.65, 50.0]:
            assert swap_photon_added_closed(0.0, r) == 0.0

    def test_matches_moments_route(self):
        for n in np.linspace(0.0, 3.0, 7):
            for r in np.linspace(0.0, 3.0, 7):
                moments = moments_swap(photon_added_sts_wigner(n, r))
                assert abs(swap_photon_added_closed(n, r) - moments) < 1e-10

    @pytest.mark.parametrize("n,r", [(0.5, 0.6), (1.0, 0.3), (0.0, 0.5), (0.2, 0.2)])
    def test_matches_fock_oracle(self, n, r):
        oracle = witness_fock(photon_added_sts_fock(n, r, 40), "SWAP")
        assert abs(swap_photon_added_closed(n, r) - oracle) < 1e-8

    def test_rejects_negative(self):
        with pytest.raises(InvalidArgumentError):
            swap_photon_added_closed(0.0, -1.0)


class TestSwap:
    def test_vacuum(self):
        value = swap_expectation(squeezed_thermal_params(0.0, 0.0).covariance())
        assert abs(value - 1.0) < 1e-9

    def test_tmsv_symmetric_pure(self):
        # exchange-symmetric pure state: expectation exactly 1
        value = swap_expectation(tmsv_params(0.5).covariance())
        assert abs(value - 1.0) < 1e-9

    def test_standard_form_closed_slice(self, rng):
        # diagonal-slice Gaussian integral has its own closed form; cross-check
        for _ in range(30):
            s = random_standard_form(rng)
            expected = 1.0 / (
                2.0 * math.sqrt((s.a + s.b - 2 * s.c1) * (s.a + s.b - 2 * s.c2))
            )
            got = swap_expectation(s.covariance())
            assert abs(got - expected) < 1e-12

    def test_against_scipy_quadrature(self):
        spec = photon_added_sts_wigner(0.6, 0.4)

        def integrand(p, x):
            return float(wigner_value(spec, np.array([x, p, x, p])))

        integral, err = integrate.dblquad(integrand, -8, 8, -8, 8, epsabs=1e-11)
        assert err < 1e-8
        got = moments_swap(spec)
        assert abs(got - math.pi * integral) < 1e-7

    def test_determinant_against_scipy_quadrature(self):
        V = rotated_mixed_cov()
        spec = WignerSpec(V)

        def integrand(p, x):
            return float(wigner_value(spec, np.array([x, p, x, p])))

        integral, err = integrate.dblquad(integrand, -8, 8, -8, 8, epsabs=1e-11)
        assert err < 1e-8
        assert abs(swap_expectation(V) - math.pi * integral) < 1e-9

    def test_matches_moments_reference(self, rng):
        for _ in range(100):
            V = random_physical_cov(rng, 2)
            ref = moments_swap(WignerSpec(V))
            assert abs(swap_expectation(V) - ref) <= 1e-12 * max(1.0, ref)

    def test_requires_two_modes(self):
        with pytest.raises(InvalidArgumentError):
            swap_expectation(CovarianceMatrix(np.eye(6) / 4))

    def test_products_nonnegative(self, rng):
        for _ in range(50):
            value = swap_expectation(random_product_form(rng).covariance())
            assert value >= -1e-8


class TestCoherentMixture:
    def test_vacuum_limit(self):
        assert swap_expectation_coherent_mixture(0.0, 1.0, -1.0) == 1.0

    def test_printed_value(self):
        got = swap_expectation_coherent_mixture(0.6, 1.0, -1.0)
        assert abs(got - (0.6 * (math.exp(-4) - 1) + 0.4)) < 1e-15
        assert abs(got - (-0.18901061666675945)) < 1e-14

    def test_threshold_root(self):
        p_star = 1.0 / (2.0 - math.exp(-4))
        assert abs(swap_expectation_coherent_mixture(p_star, 1.0, -1.0)) < 1e-15

    def test_complex_amplitudes(self):
        got = swap_expectation_coherent_mixture(0.5, 1j, -1j)
        assert abs(got - (0.5 * (math.exp(-4) - 1) + 0.5)) < 1e-15

    def test_rejects_bad_probability(self):
        with pytest.raises(InvalidArgumentError):
            swap_expectation_coherent_mixture(1.5, 1.0, -1.0)
        with pytest.raises(InvalidArgumentError):
            witness_coherent_mixture_closed(-0.1, 1.0, -1.0)

    #: The descriptor, the Fock builder and both closed forms share one check.
    ENTRY_POINTS = (CoherentMixture, lambda *a: coherent_mixture_fock(*a, 8),
                    witness_coherent_mixture_closed, swap_expectation_coherent_mixture)

    @pytest.mark.parametrize("p", [1.5, -0.1, math.nan, math.inf])
    def test_every_mixture_entry_point_refuses_p_alike(self, p):
        for call in self.ENTRY_POINTS:
            with pytest.raises(InvalidArgumentError) as info:
                call(p, 1.0, -1.0)
            assert str(info.value) == f"mixing probability must lie in [0, 1], got {p}"

    @pytest.mark.parametrize("alpha1,alpha2", [
        (math.inf, math.inf), (math.nan, 0.0), (complex(math.nan, 0.0), 0.0),
        (0.0, complex(0.0, -math.inf)), (1e200, complex(1.0, math.nan)),
    ], ids=["mixture-inf-inf", "mixture-nan", "nan-real-part", "inf-imaginary-part",
            "huge-and-nan"])
    def test_every_mixture_entry_point_refuses_non_finite_amplitudes_alike(self, alpha1, alpha2):
        # a NaN amplitude once read SWAP NaN, "not entangled"; each entry point
        # refuses it, and an infinite one, before any overlap is formed
        for call in self.ENTRY_POINTS:
            with pytest.raises(InvalidArgumentError) as info:
                call(0.5, alpha1, alpha2)
            assert str(info.value) == (f"coherent amplitudes must be finite, got "
                                       f"alpha1={complex(alpha1)}, alpha2={complex(alpha2)}")

    @pytest.mark.parametrize("p,alpha1,alpha2", [(1.0, 0.0, 0.0), (1.0, 0.0, 1e-9),
                                                 (1.0, 0.0, 3e-8)])
    def test_every_mixture_entry_point_refuses_degenerate_alike(self, p, alpha1, alpha2):
        # the trace 1 - p exp(-|alpha1 - alpha2|^2) is at most 1e-15 in floats
        messages = set()
        for call in self.ENTRY_POINTS:
            with pytest.raises(InvalidArgumentError, match="^degenerate mixture: ") as info:
                call(p, alpha1, alpha2)
            messages.add(str(info.value))
        assert len(messages) == 1

    @pytest.mark.parametrize("p,alpha1,alpha2", [(1.0, 0.0, 1e-7), (1.0 - 1e-9, 0.0, 0.0)])
    def test_every_mixture_entry_point_accepts_trace_above_floor(self, p, alpha1, alpha2):
        overlap = math.exp(-abs(alpha1 - alpha2) ** 2)
        assert 1.0 - p * overlap > 1e-15
        state, rho, w01, swap = (call(p, alpha1, alpha2) for call in self.ENTRY_POINTS)
        assert (state.p, state.alpha1, state.alpha2) == (p, alpha1, alpha2)
        assert rho.trace_deficit <= 0.01
        assert w01 == p * (1.0 - overlap)
        assert swap == p * (overlap - 1.0) + 1.0 - p

    @pytest.mark.parametrize("alpha1,alpha2", [(1e200, 0.0), (1e154, -1e154), (1e308, -1e308j)])
    def test_overflowing_separation(self, alpha1, alpha2):
        # |alpha1 - alpha2|^2 overflows and reads as inf: the overlap is exactly 0
        for p in (0.0, 0.25, 1.0):
            assert witness_coherent_mixture_closed(p, alpha1, alpha2) == p
            assert swap_expectation_coherent_mixture(p, alpha1, alpha2) == 1.0 - 2.0 * p

    def test_finite_overlap_keeps_its_bits(self, rng):
        # the square stays abs(d) ** 2, whose rounding differs from d * d
        for _ in range(2000):
            a1, a2 = (complex(*rng.normal(size=2) * 10.0 ** rng.uniform(-3, 1.2)) for _ in range(2))
            p = float(rng.uniform())
            overlap = math.exp(-abs(a1 - a2) ** 2)
            assert swap_expectation_coherent_mixture(p, a1, a2) == p * (overlap - 1.0) + 1.0 - p
            assert witness_coherent_mixture_closed(p, a1, a2) == p * (1.0 - overlap)

    def test_w01_closed_form_matches_oracle(self, rng):
        # p (1 - exp(-|a1 - a2|^2)) against the cutoff-40 Fock state, p = 0
        # and p = 1 included
        points = [(0.0, 1.0, -1.0), (1.0, 1.0, -1.0), (1.0, 0.3j, 0.2)]
        for _ in range(4):
            a1, a2 = (complex(rng.uniform(0, 1.5) * np.exp(2j * np.pi * rng.uniform()))
                      for _ in range(2))
            points.append((float(rng.uniform()), a1, a2))
        for p, a1, a2 in points:
            oracle = witness_fock(coherent_mixture_fock(p, a1, a2, 40), "W01")
            assert abs(witness_coherent_mixture_closed(p, a1, a2) - oracle) < 1e-12


def test_detection_convention():
    assert not detects_entanglement(0.0)
    assert not detects_entanglement(-1e-11)
    assert detects_entanglement(-1e-9)
