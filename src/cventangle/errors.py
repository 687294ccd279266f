"""Exception types shared across the library, and the parameter checks that
more than one module applies.

The CLI maps these onto exit codes: invalid input -> 2, numeric/domain
failures -> 3, I/O -> 4 (see :mod:`cventangle.cli`).
"""


class CVEntangleError(Exception):
    """Base class for all library errors."""


class InvalidArgumentError(CVEntangleError, ValueError):
    """Malformed or out-of-contract input."""


class SingularInputError(CVEntangleError):
    """Matrix input outside the solvable domain (e.g. not positive definite)."""


class NumericDomainError(CVEntangleError):
    """A closed-form expression was evaluated outside its numeric domain."""


class SingularLimitError(CVEntangleError):
    """Parameters sit exactly on a singular boundary of a closed form."""


class SpectralDomainError(CVEntangleError):
    """A computed spectrum violates the bounds the caller requires."""


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
