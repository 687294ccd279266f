"""Constructors for the Gaussian and non-Gaussian state families.

All families are zero-mean; displacements do not change entanglement and are
not modelled.  A Gaussian state (covariance or standard form) supplies the
2x2 slice matrix whose determinant gives its witness and SWAP values
(:func:`cventangle.phase_space.slice_integral`); the non-Gaussian families
are described by their parameters and evaluated in closed form.

The family table :data:`FAMILIES` at the end of the module is the one place
that lists each family's name, class, descriptor fields, scan axes, the
evaluator of every quantity it supports and any realignment reduction.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from . import realignment, witness
from .errors import (InvalidArgumentError, complex_field, matrix_field, real_field,
                     require_mixture, require_nonnegative_nr, require_vacuum_bound, text_field)
from .realignment import two_two_family
from .symplectic import CovarianceMatrix, require_physical


def standard_form_is_physical(a: float, b: float, c1: float, c2: float, sab_gaps) -> bool:
    """Closed-form physicality test V + iJ/4 >= 0 of a standard form with
    a, b >= 1/4 (Simon, PRL 84, 2726 (2000)), given its ``sab_gaps``.

    In the order (x1, x2 | p1, p2), V + iJ/4 = [[X, iI/4], [-iI/4, P]] with
    X = [[a, c1], [c1, b]], P = [[a, c2], [c2, b]].  It is positive
    semidefinite iff d_i = ab - c_i^2 > 0 and the Schur complement
    M = P - X^{-1}/16 = [[a - bk, c2 + c1 k], [c2 + c1 k, b - ak]], with
    k = 1 / (16 d1), is: tr M >= 0 is 16 d1 >= 1 and det M >= 0 is
    256 d1 d2 - 16 (a^2 + b^2 + 2 c1 c2) + 1 >= 0.  The test reads the
    smaller eigenvalue of M, (a + b)(1 - k)/2 - hypot((a - b)(1 + k)/2,
    c2 + c1 k), not det M: M -> 0 near a pure state, where det M is a product
    of two small numbers.  All terms are divided by s = sqrt(ab), and
    delta1 = d1 / s^2 is (s - |c1|)(s + |c1|) / s^2, with s and s - |c1|
    from :func:`cventangle.realignment.standard_form_gaps` (a, b, (c1, c2)).

    Inputs within two roundings of a physical state (a, b, c1, c2 each moved
    by up to 2u relative, u = 2^-53), such as cosh(2r)/4, sinh(2r)/4, are
    accepted by evaluating at their most favourable end.  The eigenvalue
    decreases with k (its k-derivative is -(alpha + beta)/2 +
    hypot((alpha - beta)/2, g1) < 0, as g1^2 < 1 = alpha beta), and k is
    computed with delta1 + 32u: delta1 <= 1 moves by at most 8u under the
    input change and by at most 8u under its own rounding (that of s and of
    s - |c1|, each within a few ulps of itself, included).  The other errors
    (the rounding of s, alpha, beta, g_i, k and of the eigenvalue, and the
    input change of all but delta1) are first order in u with coefficients
    at most L (1 + k), L = max(alpha, beta) + |g1| + |g2|; the test allows
    64 u L (1 + k).  Once k >= 2 the eigenvalue lies below
    -(alpha + beta) k / 4, far under that allowance (L <= 2 (alpha + beta)),
    so an accepted state has k < 2 and its computed eigenvalue is at least
    -192 u L.
    """
    s, (gap1, gap2) = sab_gaps
    if not (gap1 > 0 and gap2 > 0):
        return False
    alpha, beta, g1, g2 = a / s, b / s, c1 / s, c2 / s
    delta1 = gap1 / s * ((s + abs(c1)) / s)
    k = (0.25 / s) ** 2 / (delta1 + 2.0**-48)
    lowest = (0.5 * (alpha + beta) * (1.0 - k)
              - math.hypot(0.5 * (alpha - beta) * (1.0 + k), g2 + g1 * k))
    scale = max(alpha, beta) + abs(g1) + abs(g2)
    return lowest >= -2.0**-47 * scale * (1.0 + k)


@dataclass(frozen=True)
class TwoModeStandardForm:
    """Standard-form parameters (a, b, c1, c2) of a two-mode Gaussian state.

    The covariance matrix is block-diagonal per quadrature: diag blocks
    diag(a, a) and diag(b, b), off-diagonal diag(c1, c2).  Requires a, b >= 1/4
    and the physicality of V, decided in closed form by
    :func:`standard_form_is_physical`, whose gaps it keeps for its norm; each
    field must be a finite real number (:func:`cventangle.errors.real_field`).
    """

    a: float
    b: float
    c1: float
    c2: float

    def __post_init__(self):
        a, b, c1, c2 = (real_field(name, getattr(self, name)) for name in ("a", "b", "c1", "c2"))
        require_vacuum_bound(a=a, b=b)
        sab_gaps = realignment.standard_form_gaps(a, b, (c1, c2))
        if not standard_form_is_physical(a, b, c1, c2, sab_gaps):
            raise InvalidArgumentError(
                "constraint violated: the standard form fails the physicality "
                f"test V + iJ/4 >= 0 (a={a}, b={b}, c1={c1}, c2={c2})"
            )
        self.__dict__.update(a=a, b=b, c1=c1, c2=c2, _gaps=sab_gaps)  # frozen: no __setattr__

    def slice_matrix(self, d_minus: float, d_plus: float) -> tuple[float, float, float, float]:
        """diag(K-, K+), the slice matrix of :mod:`cventangle.phase_space`."""
        return (self.a + self.b * d_minus**2 + 2.0 * self.c1 * d_minus, 0.0, 0.0,
                self.a + self.b * d_plus**2 + 2.0 * self.c2 * d_plus)

    def covariance(self) -> CovarianceMatrix:
        V = np.zeros((4, 4))
        V[0, 0] = V[1, 1] = self.a
        V[2, 2] = V[3, 3] = self.b
        V[0, 2] = V[2, 0] = self.c1
        V[1, 3] = V[3, 1] = self.c2
        return CovarianceMatrix(V)


@dataclass(frozen=True)
class TwoTwoFamilyParams:
    """Parameters (a, b, c) of the 2+2-mode correlated-thermal family, each
    finite, with a, b >= 1/4."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        a, b, c = (real_field(name, getattr(self, name)) for name in ("a", "b", "c"))
        require_vacuum_bound(a=a, b=b)
        self.__dict__.update(a=a, b=b, c=c)

    def covariance(self) -> CovarianceMatrix:
        return two_two_family(self.a, self.b, self.c)


@dataclass(frozen=True)
class PhotonAddedSqueezedThermal:
    """Single photon added (on mode 2) to a symmetric two-mode squeezed
    thermal state with mean thermal photon number n and squeezing r, each
    finite and nonnegative."""

    n: float
    r: float

    def __post_init__(self):
        n, r = real_field("n", self.n), real_field("r", self.r)
        require_nonnegative_nr(n, r)
        self.__dict__.update(n=n, r=r)


@dataclass(frozen=True)
class CoherentMixture:
    """Mixture of the antisymmetrized two-mode coherent state with vacuum.

    The antisymmetric branch (|a1 a2> - |a2 a1|)/sqrt(2) is weighted by p as
    written, without dividing out the coherent overlap, so the operator trace
    is 1 - p exp(-|a1 - a2|^2); the closed-form expectation values in
    :mod:`cventangle.witness` follow the same convention.  A mixture whose
    trace is at most 1e-15 is rejected (:func:`cventangle.errors.require_mixture`).
    """

    p: float
    alpha1: complex
    alpha2: complex

    def __post_init__(self):
        p, alpha1, alpha2, _overlap = require_mixture(self.p, self.alpha1, self.alpha2)
        self.__dict__.update(p=p, alpha1=alpha1, alpha2=alpha2)


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
    keywords.  On a Gaussian row, ``reduction`` maps a state to the arguments
    of :func:`cventangle.realignment.realignment_result`, from which
    ``realignment_norm`` is derived.

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
    reduction: Optional[Callable] = None


_W01 = witness.WitnessParams(0.0, 1.0)

# Evaluators look engine functions up at call time, so wrappers installed on
# the engine modules (tracing, test doubles) see every call.
FAMILIES = (
    Family("standard2", TwoModeStandardForm, dict.fromkeys(("a", "b", "c1", "c2"), real_field), {
        "optimal_witness": lambda s: witness.optimal_witness(s),
        "witness01": lambda s: witness.witness_expectation_gaussian(s, _W01),
        "swap": lambda s: witness.swap_expectation(s),
    }, axes=("a", "b", "c1", "c2"), reduction=lambda s: s._gaps),
    Family("two_two", TwoTwoFamilyParams, dict.fromkeys(("a", "b", "c"), real_field), {
        "classify": lambda s: realignment.classify_two_two(s.a, s.b, s.c),
    }, axes=("a", "b", "c"), grid={
        "classify": lambda a, b, c: realignment.classify_two_two_array(a, b, c),
    }, reduction=lambda s: realignment.two_two_reduction(s.a, s.b, s.c)),
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
        "witness01": lambda V: witness.witness_expectation_gaussian(V, _W01),
        "swap": lambda V: witness.swap_expectation(V),
    }, build=lambda **fields: require_physical(CovarianceMatrix.from_fields(**fields)),
           reduction=lambda V: realignment.covariance_reduction(V)),
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
