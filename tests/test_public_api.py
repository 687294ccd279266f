"""The package's public names, pinned so that an added, removed or renamed
export shows up as a diff of this list."""

import cventangle

PUBLIC_API = [
    "BoundReport",
    "CVEntangleError",
    "CoherentMixture",
    "CovarianceMatrix",
    "FockDensityMatrix",
    "InvalidArgumentError",
    "NumericDomainError",
    "OptimalWitness",
    "PhotonAddedSqueezedThermal",
    "RealignmentResult",
    "SingularInputError",
    "SingularLimitError",
    "TruncationError",
    "TwoModeStandardForm",
    "TwoTwoClassification",
    "TwoTwoFamilyParams",
    "WilliamsonSpectrum",
    "WitnessParams",
    "binary_entropy",
    "bound_report",
    "classify_two_two",
    "coherent_mixture_fock",
    "concurrence_lower_bound",
    "cren_lower_bound",
    "detects_entanglement",
    "eof_lower_bound",
    "family_threshold",
    "is_physical",
    "negativity_fock",
    "optimal_witness",
    "parse_state_descriptor",
    "photon_added_sts_fock",
    "realigned_gram_covariance",
    "realignment_norm",
    "realignment_trace_norm_fock",
    "squeezed_thermal_fock",
    "squeezed_thermal_params",
    "state_descriptor",
    "swap_expectation",
    "swap_expectation_coherent_mixture",
    "swap_photon_added_closed",
    "symplectic_eigenvalues",
    "symplectic_form",
    "tangle_lower_bound",
    "tmsv_fock",
    "tmsv_params",
    "two_two_family",
    "witness_coherent_mixture_closed",
    "witness_expectation_gaussian",
    "witness_fock",
    "witness_photon_added_closed",
]


def test_public_api_is_pinned():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert cventangle.__all__ == PUBLIC_API

