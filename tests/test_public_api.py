"""The package's public names, pinned so that an added, removed or renamed
export shows up as a diff of this list, and the README's library quick start,
run as written."""

import ast
import math
import pathlib

import pytest

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
    "realignment_norm",
    "realignment_trace_norm_fock",
    "squeezed_thermal_fock",
    "squeezed_thermal_params",
    "state_descriptor",
    "swap_expectation",
    "swap_expectation_coherent_mixture",
    "swap_photon_added_closed",
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



def test_gram_route_left_the_package():
    # the explicit Gram route is a test reference (conftest), not package code
    from cventangle import errors, realignment, symplectic

    for module, name in ((realignment, "realigned_gram_covariance"),
                         (symplectic, "symplectic_eigenvalues"),
                         (symplectic, "IMAG_RESIDUAL_TOL"),
                         (errors, "SingularInputError")):
        assert not hasattr(module, name), name
        assert not hasattr(cventangle, name), name


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quick_start_values() -> list:
    """The value of each expression statement of the README's "Library quick
    start" block, run in order in one namespace."""
    text = README.read_text().split("## Library quick start", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, []
    for statement in ast.parse(block).body:
        if isinstance(statement, ast.Expr):
            values.append(eval(compile(ast.Expression(statement.value), README.name, "eval"),
                               namespace))
        else:
            exec(compile(ast.Module([statement], []), README.name, "exec"), namespace)
    return values


def test_readme_quick_start_gives_the_values_in_its_comments():
    witness, realigned, classified, fock_witness, negativity = quick_start_values()
    assert witness == pytest.approx(1 - math.exp(1.2), rel=1e-14)
    assert realigned.norm == pytest.approx(math.exp(1.2), rel=1e-14)
    assert realigned.verdict == "entangled"
    assert classified.verdict == "bound_entangled" and round(classified.norm, 5) == 1.29132
    assert classified.spectrum is not None
    assert fock_witness == pytest.approx(1 - math.exp(1.2), abs=1e-9)
    assert negativity == pytest.approx(math.exp(1.2) - 1, abs=1e-9)
