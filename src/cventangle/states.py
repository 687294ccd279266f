"""Constructors for the Gaussian and non-Gaussian state families.

All families are zero-mean; displacements do not change entanglement and are
not modelled.  Gaussian states are described by their covariance matrix, the
single non-Gaussian Wigner function by a :class:`WignerSpec` (polynomial
prefactor times a Gaussian core), so that expectation values follow from exact
Gaussian moment algebra.

The family table :data:`FAMILIES` at the end of the module is the one place
that lists each family's name, class, descriptor fields, scan axes and the
evaluator of every quantity it supports.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from . import realignment, witness
from .errors import (InvalidArgumentError, complex_field, matrix_field, real_field,
                     require_nonnegative_nr, require_vacuum_bound, text_field)
from .realignment import two_two_family
from .symplectic import CovarianceMatrix, is_physical


@dataclass(frozen=True)
class TwoModeStandardForm:
    """Standard-form parameters (a, b, c1, c2) of a two-mode Gaussian state.

    The covariance matrix is block-diagonal per quadrature: diag blocks
    diag(a, a) and diag(b, b), off-diagonal diag(c1, c2).  Requires a, b >= 1/4
    and ab >= c1^2, c2^2, and the expanded matrix must pass the physicality
    test V + iJ/4 >= 0.
    """

    a: float
    b: float
    c1: float
    c2: float

    def __post_init__(self):
        a, b, c1, c2 = (float(v) for v in (self.a, self.b, self.c1, self.c2))
        require_vacuum_bound(a=a, b=b)
        for name, c in (("c1", c1), ("c2", c2)):
            if not (a * b >= c * c):
                raise InvalidArgumentError(
                    f"constraint violated: ab >= {name}^2 (ab={a * b}, {name}={c})"
                )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        if not is_physical(self.covariance()):
            raise InvalidArgumentError(
                "constraint violated: expanded covariance fails the physicality "
                f"test V + iJ/4 >= 0 (a={a}, b={b}, c1={c1}, c2={c2})"
            )

    def covariance(self) -> CovarianceMatrix:
        V = np.zeros((4, 4))
        V[0, 0] = V[1, 1] = self.a
        V[2, 2] = V[3, 3] = self.b
        V[0, 2] = V[2, 0] = self.c1
        V[1, 3] = V[3, 1] = self.c2
        return CovarianceMatrix(V)

    def wigner(self) -> "WignerSpec":
        return WignerSpec(covariance=self.covariance())


@dataclass(frozen=True)
class TwoTwoFamilyParams:
    """Parameters (a, b, c) of the 2+2-mode correlated-thermal family."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        a, b, c = float(self.a), float(self.b), float(self.c)
        require_vacuum_bound(a=a, b=b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def covariance(self) -> CovarianceMatrix:
        return two_two_family(self.a, self.b, self.c)


@dataclass(frozen=True)
class PhotonAddedSqueezedThermal:
    """Single photon added (on mode 2) to a symmetric two-mode squeezed
    thermal state with mean thermal photon number n and squeezing r."""

    n: float
    r: float

    def __post_init__(self):
        n, r = float(self.n), float(self.r)
        require_nonnegative_nr(n, r)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)


@dataclass(frozen=True)
class CoherentMixture:
    """Mixture of the antisymmetrized two-mode coherent state with vacuum.

    The antisymmetric branch (|a1 a2> - |a2 a1|)/sqrt(2) is weighted by p as
    written, without dividing out the coherent overlap, so the operator trace
    is 1 - p exp(-|a1 - a2|^2); the closed-form expectation values in
    :mod:`cventangle.witness` follow the same convention.  At p = 1 with
    a1 = a2 that operator is zero, and the mixture is rejected.
    """

    p: float
    alpha1: complex
    alpha2: complex

    def __post_init__(self):
        p = float(self.p)
        if not (0.0 <= p <= 1.0):
            raise InvalidArgumentError(f"mixing probability must lie in [0, 1], got {p}")
        alpha1, alpha2 = complex(self.alpha1), complex(self.alpha2)
        if p == 1.0 and alpha1 == alpha2:
            raise InvalidArgumentError(
                "degenerate mixture: at p = 1 with alpha1 = alpha2 the state is the zero operator"
            )
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "alpha1", alpha1)
        object.__setattr__(self, "alpha2", alpha2)


@dataclass(frozen=True)
class WignerSpec:
    """A zero-mean Wigner function: Gaussian core x optional polynomial prefactor.

    ``poly`` maps exponent tuples over (x1, p1, ..., xm, pm) to coefficients.
    """

    covariance: CovarianceMatrix
    poly: Optional[Mapping[tuple, float]] = None

    def __post_init__(self):
        if self.poly is not None:
            dim = 2 * self.covariance.modes
            poly = {}
            for expo, coeff in self.poly.items():
                expo = tuple(int(e) for e in expo)
                if len(expo) != dim or any(e < 0 for e in expo):
                    raise InvalidArgumentError(f"bad exponent tuple {expo} for {dim} coordinates")
                poly[expo] = float(coeff)
            object.__setattr__(self, "poly", poly)

    @property
    def modes(self) -> int:
        return self.covariance.modes


def squeezed_thermal_params(n: float, r: float) -> TwoModeStandardForm:
    """Standard form of the symmetric two-mode squeezed thermal state.

    a = b = (1+2n) cosh(2r)/4 and c1 = -c2 = (1+2n) sinh(2r)/4; n = 0 gives
    the two-mode squeezed vacuum, n = r = 0 the vacuum.
    """
    n, r = float(n), float(r)
    require_nonnegative_nr(n, r)
    scale = (1.0 + 2.0 * n) / 4.0
    a = scale * math.cosh(2.0 * r)
    c = scale * math.sinh(2.0 * r)
    return TwoModeStandardForm(a=a, b=a, c1=c, c2=-c)


def tmsv_params(r: float) -> TwoModeStandardForm:
    """Two-mode squeezed vacuum standard form."""
    return squeezed_thermal_params(0.0, r)


def photon_added_sts_wigner(n: float, r: float) -> WignerSpec:
    """Wigner function of the single-photon-added (mode 2) symmetric two-mode
    squeezed thermal state: quadratic prefactor times the squeezed-thermal
    Gaussian core.  Integrates to 1; W(0, 0) < 0 reflects the added photon.
    """
    n, r = float(n), float(r)
    core = squeezed_thermal_params(n, r).covariance()
    m = 1.0 + 2.0 * n
    C = math.cosh(2.0 * r)
    S = math.sinh(2.0 * r)
    beta = m + C
    denom = m * m * (math.cosh(r) ** 2 + n * C)
    const = -m * (n + math.cosh(r) ** 2)
    # [(beta x2 - S x1)^2 + (beta p2 + S p1)^2 + const] / denom
    poly = {
        (0, 0, 2, 0): beta * beta / denom,
        (1, 0, 1, 0): -2.0 * beta * S / denom,
        (2, 0, 0, 0): S * S / denom,
        (0, 0, 0, 2): beta * beta / denom,
        (0, 1, 0, 1): 2.0 * beta * S / denom,
        (0, 2, 0, 0): S * S / denom,
        (0, 0, 0, 0): const / denom,
    }
    return WignerSpec(covariance=core, poly=poly)


# ---------------------------------------------------------------------------
# the family table and JSON state descriptors
# ---------------------------------------------------------------------------

def _encode(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value.tolist() if isinstance(value, np.ndarray) else value


@dataclass(frozen=True)
class Family:
    """One row of the family table: descriptor ``name``, state class, the
    descriptor ``fields`` (each mapped to the decoder that validates its JSON
    value), the evaluator of each supported quantity, and the ``axes`` a scan
    may vary.  ``build`` (default: the class) takes the decoded fields as
    keywords.

    ``grid`` holds the grid evaluators of the quantities that have an array
    closed form: each takes the fields as keywords, numbers or arrays that
    broadcast together, and evaluates every point in one numpy pass (for
    ``bounds``, the ``witness01`` and ``swap`` grids).  Where the evaluator of
    one state would refuse a point, the grid holds NaN (for ``classify``, the
    verdict ``invalid``)."""

    name: str
    cls: type
    fields: Mapping[str, Callable]
    quantities: Mapping[str, Callable]
    axes: tuple[str, ...] = ()
    build: Optional[Callable] = None
    grid: Mapping[str, Callable] = dataclasses.field(default_factory=dict)


def _physical_covariance(**fields) -> CovarianceMatrix:
    """The ``raw_covariance`` state: :meth:`CovarianceMatrix.from_fields`,
    refused unless it passes the physicality test V + iJ/4 >= 0."""
    V = CovarianceMatrix.from_fields(**fields)
    if not is_physical(V):
        raise InvalidArgumentError(
            "constraint violated: covariance fails the physicality test V + iJ/4 >= 0"
        )
    return V


_W01 = witness.WitnessParams(0.0, 1.0)

# Evaluators look engine functions up at call time, so wrappers installed on
# the engine modules (tracing, test doubles) see every call.
FAMILIES = (
    Family("standard2", TwoModeStandardForm, dict.fromkeys(("a", "b", "c1", "c2"), real_field), {
        "optimal_witness": lambda s: witness.optimal_witness(s),
        "witness01": lambda s: witness.witness_expectation_gaussian(s, _W01),
        "swap": lambda s: witness.swap_expectation(s.wigner()),
        "realignment_norm": lambda s: realignment.realignment_norm(s.covariance()),
    }, axes=("a", "b", "c1", "c2")),
    Family("two_two", TwoTwoFamilyParams, dict.fromkeys(("a", "b", "c"), real_field), {
        "realignment_norm": lambda s: realignment.realignment_norm(s.covariance()),
        "classify": lambda s: realignment.classify_two_two(s.a, s.b, s.c),
    }, axes=("a", "b", "c"), grid={
        "classify": lambda a, b, c: realignment.classify_two_two_array(a, b, c),
    }),
    Family("photon_added_sts", PhotonAddedSqueezedThermal, dict.fromkeys(("n", "r"), real_field), {
        "witness01": lambda s: witness.witness_photon_added_closed(s.n, s.r),
        "swap": lambda s: witness.swap_photon_added_closed(s.n, s.r),
    }, axes=("n", "r"), grid={
        "witness01": lambda n, r: witness.witness_photon_added_array(n, r),
        "swap": lambda n, r: witness.swap_photon_added_array(n, r),
        "bounds": lambda n, r: (witness.witness_photon_added_array(n, r),
                                witness.swap_photon_added_array(n, r)),
    }),
    Family("coherent_mixture", CoherentMixture,
           {"p": real_field, "alpha1": complex_field, "alpha2": complex_field}, {
        "witness01": lambda s: witness.witness_coherent_mixture_closed(s.p, s.alpha1, s.alpha2),
        "swap": lambda s: witness.swap_expectation_coherent_mixture(s.p, s.alpha1, s.alpha2),
    }, axes=("p",)),
    Family("raw_covariance", CovarianceMatrix,
           {"modes": real_field, "ordering": text_field, "matrix": matrix_field}, {
        "witness01": lambda V: witness.witness_expectation_wigner(WignerSpec(V), _W01),
        "swap": lambda V: witness.swap_expectation(WignerSpec(V)),
        "realignment_norm": lambda V: realignment.realignment_norm(V),
    }, build=_physical_covariance),
)

_BY_NAME = {family.name: family for family in FAMILIES}
_BY_CLASS = {family.cls: family for family in FAMILIES}


def family_named(name) -> Family:
    if not isinstance(name, str) or name not in _BY_NAME:
        raise InvalidArgumentError(f"unknown state family {name!r} (choose from {list(_BY_NAME)})")
    return _BY_NAME[name]


def family_of(state) -> Family:
    if type(state) not in _BY_CLASS:
        raise InvalidArgumentError(f"cannot serialize state of type {type(state).__name__}")
    return _BY_CLASS[type(state)]


def decode_fields(family: Family, doc: dict, skip=()) -> dict:
    """The decoded values of the descriptor fields of ``family`` in ``doc``,
    leaving out the names in ``skip``."""
    try:
        return {field: decode(field, doc[field])
                for field, decode in family.fields.items() if field not in skip}
    except (KeyError, TypeError) as exc:
        raise InvalidArgumentError(f"malformed {family.name!r} descriptor: {exc}") from exc


def parse_state_descriptor(doc: dict):
    """Build the typed state object described by an interchange document
    (families: see :data:`FAMILIES`)."""
    if not isinstance(doc, dict):
        raise InvalidArgumentError("state descriptor must be a JSON object")
    family = family_named(doc.get("family"))
    return (family.build or family.cls)(**decode_fields(family, doc))


def state_descriptor(state) -> dict:
    """Inverse of :func:`parse_state_descriptor`."""
    family = family_of(state)
    return {"family": family.name, **{f: _encode(getattr(state, f)) for f in family.fields}}
