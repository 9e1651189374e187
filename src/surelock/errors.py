"""Exception types and configuration type checks shared across the package."""

import math
import numbers


class InvalidInputError(ValueError):
    """An argument violates an operation's preconditions."""


class ConfigError(ValueError):
    """A run or model configuration is inconsistent."""


class InvalidStateError(RuntimeError):
    """An operation was applied to sampler state it is not valid for."""


class StateCorruptionError(InvalidStateError):
    """Internal bookkeeping (caches, frozen rows) is inconsistent."""


class NonFiniteError(InvalidStateError):
    """A model output that must be finite holds a NaN or an infinity."""


class NoWorkError(InvalidStateError):
    """A computation was requested over an empty row set."""


class EstimateUndefinedError(ValueError):
    """A tail statistic was requested on a trajectory with no usable tail."""


class InternalConsistencyError(RuntimeError):
    """A quantity violated a bound it must satisfy up to round-off."""


def require_int(name: str, value) -> None:
    """Raise ConfigError unless ``value`` is an integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def require_finite(name: str, value) -> None:
    """Raise ConfigError unless ``value`` is a finite real number (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
