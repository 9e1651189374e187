"""Exception types, configuration type checks, and the package's one JSON reader, key checker and file writer.

``ConfigError`` and ``InvalidInputError`` reject a request (the CLI's exit 2);
``InvalidStateError`` reports a broken invariant or a non-finite result (exit 3)."""

import json
import math
import numbers
from dataclasses import fields
from pathlib import Path
from typing import Iterable

import numpy as np


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


def require_bool(name: str, value) -> None:
    """Raise ConfigError unless ``value`` is true or false (a Python or numpy bool)."""
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{name} must be true or false, got {value!r}")


def require_fields(cls, values: dict) -> None:
    """Raise ConfigError unless each of ``values`` naming a field of the dataclass ``cls`` has its annotation's
    type: ``int``, a finite ``float`` or ``bool``, or None after ``| None``. Other annotations go unchecked."""
    rules = {"int": require_int, "float": require_finite, "bool": require_bool}
    for f in fields(cls):
        rule = rules.get(f.type.removesuffix(" | None"))
        if rule is not None and f.name in values and not (values[f.name] is None and f.type.endswith(" | None")):
            rule(f.name, values[f.name])


def require_float_array(what: str, value) -> np.ndarray:
    """``value``, nested JSON arrays of JSON numbers, as a float64 array; ``ConfigError`` if it will
    not convert (ragged rows, an object) or holds anything but a number (a string, even one that
    spells a number, a bool, null), which numpy would parse or upcast."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} is not an array of numbers: {exc}") from exc
    leaves = [value]
    for _ in range(arr.ndim):  # it converted, so every leaf is ``ndim`` arrays deep
        leaves = [x for row in leaves for x in row]
    if not {type(x) for x in leaves} <= {int, float}:
        bad = next(x for x in leaves if type(x) not in (int, float))
        raise ConfigError(f"{what} is not an array of numbers: it holds {bad!r}")
    return arr


def read_json(path, what: str):
    """The JSON document at ``path``; ``ConfigError`` if the file is unreadable,
    not UTF-8, not JSON, or nested too deep. ``what`` names it in the message."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def require_keys(what: str, value, allowed: Iterable[str], required: Iterable[str] = ()) -> dict:
    """``value`` if it is a JSON object with keys from ``allowed`` and all of ``required``; else
    ``ConfigError``, naming every unknown and every missing key and listing ``allowed``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(value).__name__}")
    allowed = list(allowed)
    faults = [f"{kind} keys {keys}" for kind, keys in (("unknown", sorted(set(value) - set(allowed))),
                                                       ("missing", [k for k in required if k not in value])) if keys]
    if faults:
        raise ConfigError(f"{what} has {' and '.join(faults)}; allowed: {allowed}")
    return value


def write_text(path, text: str | Iterable[str]) -> None:
    """Write ``text``, a string or an iterable of string chunks written in
    turn, to ``path`` as it is (no newline translation), creating the parent
    directory; ``ConfigError`` if the path cannot be written."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
