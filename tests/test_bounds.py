import math

import numpy as np
import pytest
from scipy.special import entr

from cventangle import (
    InvalidArgumentError,
    binary_entropy,
    bound_report,
    concurrence_lower_bound,
    cren_lower_bound,
    eof_lower_bound,
    swap_expectation_coherent_mixture,
    tangle_lower_bound,
    witness_photon_added_closed,
)

# full-precision chain values for the p = 0.6, alpha = +-1 mixture example
MIXTURE_SWAP = 0.6 * (math.exp(-4.0) - 1.0) + 0.4          # -0.18901061666675945
MIXTURE_EOF = 0.07417300751574409
MIXTURE_TANGLE = MIXTURE_SWAP**2                            # 0.035725013212748686


def entropy_oracle(x):
    """Independent binary entropy via scipy's entr (natural log) rebased to bits."""
    return float((entr(x) + entr(1.0 - x)) / math.log(2.0))


class TestBinaryEntropy:
    def test_half_is_one_bit(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_near_one_value(self):
        got = binary_entropy(0.990985)
        assert abs(got - entropy_oracle(0.990985)) < 1e-14
        assert abs(got - 0.07419010774352694) < 1e-12

    def test_matches_oracle_sweep(self, rng):
        for x in rng.uniform(0.0, 1.0, size=50):
            assert abs(binary_entropy(x) - entropy_oracle(x)) < 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            binary_entropy(-0.1)
        with pytest.raises(InvalidArgumentError):
            binary_entropy(1.1)


class TestCrenBound:
    def test_photon_added_example(self):
        value = witness_photon_added_closed(1.0, 1.0)
        assert abs(cren_lower_bound(value) - 0.9749865698672611) < 1e-12

    def test_vacuum_clamps_to_zero(self):
        assert cren_lower_bound(0.0) == 0.0
        assert cren_lower_bound(0.7) == 0.0

    def test_tmsv_matches_exact_negativity(self):
        # witness value 1 - e^{2r} gives back the Schmidt-sum negativity
        for r in (0.2, 0.5, 1.0):
            assert abs(cren_lower_bound(1.0 - math.exp(2 * r)) - (math.exp(2 * r) - 1.0)) < 1e-12


class TestConcurrenceBound:
    def test_mixture_example(self):
        assert abs(concurrence_lower_bound(MIXTURE_SWAP) - 0.18901061666675945) < 1e-14

    def test_clamps(self):
        assert concurrence_lower_bound(0.3) == 0.0
        assert concurrence_lower_bound(0.0) == 0.0


class TestEofBound:
    def test_maximal_violation_is_one_ebit(self):
        assert eof_lower_bound(-1.0) == 1.0

    def test_mixture_example(self):
        assert abs(eof_lower_bound(MIXTURE_SWAP) - MIXTURE_EOF) < 1e-14

    def test_positive_swap_gives_zero(self):
        assert eof_lower_bound(0.3) == 0.0
        assert eof_lower_bound(0.0) == 0.0

    def test_rejects_unphysical(self):
        with pytest.raises(InvalidArgumentError):
            eof_lower_bound(-1.001)

    def test_composition_identity(self, rng):
        for v in rng.uniform(-1.0, -1e-6, size=50):
            c = concurrence_lower_bound(v)
            expected = binary_entropy((1.0 + math.sqrt(1.0 - c * c)) / 2.0)
            assert abs(eof_lower_bound(v) - expected) < 1e-15

    def test_monotone_on_negative_axis(self):
        vs = np.linspace(-1.0, 0.0, 200)
        es = [eof_lower_bound(v) for v in vs]
        assert all(a >= b - 1e-15 for a, b in zip(es, es[1:]))


class TestTangleBound:
    def test_mixture_example(self):
        got = tangle_lower_bound(MIXTURE_SWAP)
        assert abs(got - MIXTURE_TANGLE) < 1e-15
        assert abs(got - 0.035725) < 1e-6

    def test_clamps_and_extremes(self):
        assert tangle_lower_bound(0.5) == 0.0
        assert tangle_lower_bound(-1.0) == 1.0


class TestBoundReport:
    def test_mixture_chain(self):
        swap = swap_expectation_coherent_mixture(0.6, 1.0, -1.0)
        report = bound_report(witness_value_01=0.1, swap_value=swap)
        assert report.cren_lower == 0.0
        assert abs(report.concurrence_lower - 0.18901061666675945) < 1e-14
        assert abs(report.eof_lower - MIXTURE_EOF) < 1e-14
        assert abs(report.tangle_lower - MIXTURE_TANGLE) < 1e-15
        assert (report.witness_value_01, report.swap_value) == (0.1, swap)

    def test_all_bounds_nonnegative_and_consistent(self, rng):
        for _ in range(100):
            w01, swap = rng.uniform(-1.0, 1.0, size=2)
            report = bound_report(w01, swap)
            assert report.cren_lower >= 0.0
            assert report.concurrence_lower >= 0.0
            assert report.eof_lower >= 0.0
            assert report.tangle_lower >= 0.0
            assert (report.eof_lower > 0) == (report.concurrence_lower > 0)
            assert abs(report.tangle_lower - report.concurrence_lower**2) < 1e-15

    def test_monotone_in_inputs(self):
        ws = np.linspace(-1.0, 1.0, 101)
        crens = [cren_lower_bound(w) for w in ws]
        concs = [concurrence_lower_bound(w) for w in ws]
        tangles = [tangle_lower_bound(w) for w in ws]
        for seq in (crens, concs, tangles):
            assert all(a >= b - 1e-15 for a, b in zip(seq, seq[1:]))
