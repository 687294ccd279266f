"""Continuous-variable entanglement detection and estimation.

Evaluates a two-parameter family of entanglement witnesses and the SWAP
witness, computes the Gaussian realignment criterion through symplectic
spectra, classifies a family of 2+2-mode bound entangled Gaussian states, and
derives lower bounds on entanglement measures - cross-validated against a
truncated Fock-space brute-force oracle.
"""

import types

from .bounds import (
    BoundReport,
    binary_entropy,
    bound_report,
    concurrence_lower_bound,
    cren_lower_bound,
    eof_lower_bound,
    tangle_lower_bound,
)
from .errors import (
    CVEntangleError,
    InvalidArgumentError,
    NumericDomainError,
    SingularInputError,
    SingularLimitError,
    TruncationError,
)
from .fock import (
    FockDensityMatrix,
    coherent_mixture_fock,
    negativity_fock,
    photon_added_sts_fock,
    realignment_trace_norm_fock,
    squeezed_thermal_fock,
    tmsv_fock,
    witness_fock,
)
from .realignment import (
    RealignmentResult,
    TwoTwoClassification,
    classify_two_two,
    family_threshold,
    realigned_gram_covariance,
    realignment_norm,
    two_two_family,
)
from .states import (
    CoherentMixture,
    PhotonAddedSqueezedThermal,
    TwoModeStandardForm,
    TwoTwoFamilyParams,
    parse_state_descriptor,
    squeezed_thermal_params,
    state_descriptor,
    tmsv_params,
)
from .symplectic import (
    CovarianceMatrix,
    WilliamsonSpectrum,
    is_physical,
    symplectic_eigenvalues,
    symplectic_form,
)
from .witness import (
    OptimalWitness,
    WitnessParams,
    detects_entanglement,
    optimal_witness,
    swap_expectation,
    swap_expectation_coherent_mixture,
    swap_photon_added_closed,
    witness_coherent_mixture_closed,
    witness_expectation_gaussian,
    witness_photon_added_closed,
)

__version__ = "0.1.0"

#: Every public name imported above.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
