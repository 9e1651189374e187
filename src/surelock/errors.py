"""Exception types, configuration type checks and the package's one JSON reader and one file writer.

``ConfigError`` and ``InvalidInputError`` reject a request (the CLI's exit 2);
``InvalidStateError`` reports a broken invariant or a non-finite result (exit 3)."""

import json
import math
import numbers
from pathlib import Path
from typing import Iterable


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


def read_json(path, what: str):
    """The JSON document at ``path``; ``ConfigError`` if the file is
    unreadable, not UTF-8, or not JSON. ``what`` names it in the message."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


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
