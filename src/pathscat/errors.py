"""Exception taxonomy, accuracy warnings and the argument checks shared
across the package.

Every argument refusal is a DomainError. Its common forms are worded
once, by the private helpers below, and every module calls them:

* _check_choice: "unknown {what} {value!r}; options: {options}"
* _check_positive: "{what} must be positive, got {value}", and
  "{what} must be positive and finite, got inf"
* _check_nonnegative: "{what} must be non-negative", for a number or
  every entry of an array
* _check_finite: "{what} {name} must be finite, got {value!r}"
* _check_count: "{what} must be an integer, got {count!r}" and
  "{what} must be at least {least}, got {count}"

Each range check is written so that NaN fails it.
"""

import math
import numbers

import numpy as np

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


def _check_choice(what, value, options):
    """Refuse a value that is not one of options."""
    if value not in options:
        raise DomainError(f"unknown {what} {value!r}; options: {options}")


def _check_positive(what, value):
    """Refuse a value that is not > 0, or is infinite."""
    if not value > 0:
        raise DomainError(f"{what} must be positive, got {value}")
    if value == math.inf:
        raise DomainError(f"{what} must be positive and finite, got {value}")


def _check_nonnegative(what, value):
    """Refuse a number, or an array with an entry, that is not >= 0."""
    if not np.all(np.asarray(value) >= 0):
        raise DomainError(f"{what} must be non-negative")


def _check_finite(what, **values):
    """Refuse a value that is not finite, naming it."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{what} {name} must be finite, got {value!r}")


def _check_count(count, least, what):
    """Refuse a count that is not an integer (bools and floats included)
    or is below least."""
    if isinstance(count, bool) or not isinstance(count, numbers.Integral):
        raise DomainError(f"{what} must be an integer, got {count!r}")
    if count < least:
        raise DomainError(f"{what} must be at least {least}, got {count}")
