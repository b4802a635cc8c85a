"""Exception types shared across the package, and the value checks."""
import math


class McstopError(Exception):
    """Base class for all package errors."""


class DomainError(McstopError):
    """An argument lies outside the mathematical domain of the operation."""


class ParseError(McstopError):
    """A chain file could not be parsed.

    Attributes
    ----------
    row : int or None
        1-based line number of the offending row, when known.
    """

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class EmptyInput(McstopError):
    """A chain source contained no data rows."""


class InsufficientData(McstopError):
    """Not enough rows for the requested estimator."""


class InsufficientBatches(McstopError):
    """Batch count a_n too small for the requested quantity (a_n <= p)."""


class NotPositiveDefinite(McstopError):
    """A covariance estimate required to be positive definite is not."""


class NotStationary(McstopError):
    """A VAR(1) coefficient matrix has spectral radius >= 1."""


class ConfigError(McstopError):
    """A configuration is invalid or internally inconsistent."""


def require_positive(name: str, value: float) -> None:
    """DomainError unless value is a finite positive number."""
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    if value <= 0.0:
        raise DomainError(f"{name} must be positive, got {value}")


def require_alpha(alpha: float) -> None:
    """DomainError unless alpha, one minus a confidence level, lies in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0,1), got {alpha}")
