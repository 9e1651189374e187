"""Exception types and configuration type checks shared across the package.

``ConfigError`` and ``InvalidInputError`` reject a request (the CLI's exit 2);
``InvalidStateError`` reports a broken invariant or a non-finite result (exit 3)."""

import math
import numbers


class InvalidInputError(ValueError):
    """An argument violates an operation's preconditions."""


class ConfigError(ValueError):
    """A run or model configuration is inconsistent."""


class InvalidStateError(RuntimeError):
    """An invariant does not hold: sampler or cache state an operation is not
    valid for, a model output that is not finite, or a round-off check."""


def require_int(name: str, value) -> None:
    """Raise ConfigError unless ``value`` is an integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def require_finite(name: str, value) -> None:
    """Raise ConfigError unless ``value`` is a finite real number (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
