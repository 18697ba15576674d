"""Exception taxonomy and accuracy warnings shared across the package."""

__all__ = [
    "PathscatError",
    "DomainError",
    "NumericalError",
    "ConfigError",
    "AccuracyWarning",
]


class PathscatError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PathscatError):
    """Input outside the physical or structural domain of an operation."""


class NumericalError(PathscatError):
    """A numerical procedure failed to converge or produced a non-finite result.

    Carries an optional error estimate describing how far off the result is
    believed to be.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class ConfigError(PathscatError):
    """Malformed, unknown, or physically invalid configuration input."""


class AccuracyWarning(UserWarning):
    """Non-fatal accuracy concern (boundary leakage, marginal quadrature)."""
