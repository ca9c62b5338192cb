"""Exception types shared across the package, and the one check of a
numeric parameter's type and range."""

import numbers


class HandsOffError(Exception):
    """Base class for all package errors."""


class DimensionError(HandsOffError, ValueError):
    """Array shapes do not match the required layout."""


class DomainError(HandsOffError, ValueError):
    """Numeric input outside the admissible domain (non-finite, out of box)."""


class ParameterError(HandsOffError, ValueError):
    """Configuration or penalty parameter outside its admissible range."""


def is_number(val, kind=numbers.Real) -> bool:
    """Whether ``val`` is a ``kind`` other than a bool: the one number rule."""
    return isinstance(val, kind) and not isinstance(val, bool)


def check_number(name: str, val, what: str, ok, kind=numbers.Real) -> None:
    """Raise ``ParameterError("<name> must be <what>, got <val!r>")`` unless
    ``is_number(val, kind)`` and ``ok(val)`` hold."""
    if not is_number(val, kind) or not ok(val):
        raise ParameterError(f"{name} must be {what}, got {val!r}")


class AssumptionViolationError(HandsOffError, ValueError):
    """Penalty fails the structural conditions required by the DC split."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InfeasibleProblemError(HandsOffError, RuntimeError):
    """No admissible control reaches the origin; carries the phase-1 certificate."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class NumericalError(HandsOffError, RuntimeError):
    """A numeric routine failed beyond recovery (singular basis, stall)."""


class SizeError(HandsOffError, ValueError):
    """Instance too large for exhaustive enumeration."""
