"""Argument-validation helpers shared across the library.

These helpers raise uniform, descriptive exceptions so that misuse of the
public API fails close to the call site with an actionable message rather
than deep inside numpy broadcasting.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "env_number",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_choices",
    "as_pair",
]


def env_number(
    name: str, parse: Callable[[str], Any], expected: str, default: Any = None
) -> Any:
    """Parse environment variable ``name`` with ``parse``.

    Unset or blank returns ``default``; a value ``parse`` rejects raises
    a ``ValueError`` naming the variable, its value and ``expected``
    (e.g. ``"an integer"``) instead of a bare conversion error.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return parse(raw)
    except ValueError:
        raise ValueError(f"{name} must be {expected}, got {raw!r}") from None


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it for chaining."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0``; return it for chaining."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``; return it for chaining."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


def check_in_choices(name: str, value: Any, choices: Iterable[Any]) -> Any:
    """Require ``value`` to be one of ``choices``; return it for chaining."""
    options = tuple(choices)
    if value not in options:
        raise ValueError(f"{name} must be one of {options!r}, got {value!r}")
    return value


def as_pair(name: str, value: "int | Sequence[int]") -> tuple[int, int]:
    """Normalise an int-or-pair argument (kernel size, stride, ...) to a pair."""
    if isinstance(value, (int, np.integer)):
        return (int(value), int(value))
    pair = tuple(int(item) for item in value)
    if len(pair) != 2:
        raise ValueError(f"{name} must be an int or a pair, got {value!r}")
    return pair  # type: ignore[return-value]
