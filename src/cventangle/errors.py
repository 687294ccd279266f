"""Exception types shared across the library, and the parameter checks, JSON
field decoders and float guards that more than one module applies.

The CLI maps these onto exit codes: invalid input -> 2, numeric/domain
failures -> 3, I/O -> 4 (see :mod:`cventangle.cli`).
"""

import math
import numbers

import numpy as np


class CVEntangleError(Exception):
    """Base class for all library errors."""


class InvalidArgumentError(CVEntangleError, ValueError):
    """Malformed or out-of-contract input."""


class NumericDomainError(CVEntangleError):
    """A closed-form expression was evaluated outside its numeric domain."""


class SingularLimitError(CVEntangleError):
    """Parameters sit exactly on a singular boundary of a closed form."""


class TruncationError(CVEntangleError):
    """Fock-space truncation too small for the requested state."""


def require_vacuum_bound(**variances: float) -> None:
    """Reject any local variance below the vacuum value 1/4 (NaN included)."""
    for name, v in variances.items():
        if not (v >= 0.25):
            raise InvalidArgumentError(f"constraint violated: {name} >= 1/4 (got {v})")


def require_nonnegative_nr(n: float, r: float) -> None:
    """Reject a negative (or NaN) thermal photon number n or squeezing r."""
    if not (n >= 0 and r >= 0):
        raise InvalidArgumentError(f"n and r must be nonnegative (got n={n}, r={r})")


def require_mixture(p, alpha1, alpha2) -> tuple[float, complex, complex, float]:
    """The coherent mixture's (p, alpha1, alpha2) as float and complexes, with
    its overlap exp(-|alpha1 - alpha2|^2): p must be a finite real number
    (:func:`real_field`) in [0, 1], both amplitudes must be finite (huge ones
    are fine), and the operator trace 1 - p * overlap must exceed 1e-15."""
    p = real_field("p", p)
    if not (0.0 <= p <= 1.0):
        raise InvalidArgumentError(f"mixing probability must lie in [0, 1], got {p}")
    alpha1, alpha2 = complex(alpha1), complex(alpha2)
    if not all(map(math.isfinite, (alpha1.real, alpha1.imag, alpha2.real, alpha2.imag))):
        raise InvalidArgumentError(
            f"coherent amplitudes must be finite, got alpha1={alpha1}, alpha2={alpha2}")
    overlap = math.exp(-abs_square(alpha1 - alpha2))
    if 1.0 - p * overlap <= 1e-15:
        raise InvalidArgumentError(
            f"degenerate mixture: the trace 1 - p exp(-|alpha1 - alpha2|^2) is at most 1e-15 "
            f"(p={p}, alpha1={alpha1}, alpha2={alpha2})"
        )
    return p, alpha1, alpha2, overlap


def abs_square(z: complex) -> float:
    """|z|^2 as ``abs(z) ** 2``, read as inf where it overflows (Python
    raises OverflowError there, past |z| ~ 1.3e154)."""
    try:
        return abs(z) ** 2
    except OverflowError:
        return math.inf


def real_field(name: str, value) -> float:
    """A finite real number; booleans, NaN and infinities are rejected."""
    if type(value) is float and math.isfinite(value):
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise InvalidArgumentError(f"field {name!r} must be a finite number, got {value!r}")


def complex_field(name: str, value) -> complex:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise InvalidArgumentError(f"field {name!r} must be a [re, im] pair, got {value!r}")
    return complex(real_field(name, value[0]), real_field(name, value[1]))


def text_field(name: str, value) -> str:
    if not isinstance(value, str):
        raise InvalidArgumentError(f"field {name!r} must be a string, got {value!r}")
    return value


def matrix_field(name: str, value) -> np.ndarray:
    """Rows of real numbers as one float array; each entry type passes :func:`real_field`'s
    test first (numpy parses "1.5", reads True as 1.0).  CovarianceMatrix checks the rest."""
    for kind in {type(x) for row in value for x in row}:
        if not issubclass(kind, numbers.Real) or issubclass(kind, bool):
            raise InvalidArgumentError(f"field {name!r} must hold numbers, got a {kind.__name__}")
    try:
        return np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:  # ragged rows, an integer beyond the float range
        raise InvalidArgumentError(f"malformed matrix in field {name!r}: {exc}") from exc
