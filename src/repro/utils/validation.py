"""Small argument-validation helpers shared across the library.

These helpers raise :class:`repro.exceptions.ConfigurationError` with
uniform, actionable messages. They exist so hot paths can validate inputs in
one line without each module reinventing the checks (and so tests can assert
on a single error type).
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "check_positive",
    "check_nonnegative",
    "check_in_range",
    "check_probability",
    "check_integer",
    "check_one_of",
    "check_finite_array",
]


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it."""
    if not (value > 0):
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


def check_nonnegative(name: str, value: float) -> float:
    """Require ``value >= 0``; return it."""
    if not (value >= 0):
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return value


def check_in_range(
    name: str,
    value: float,
    lo: float = -math.inf,
    hi: float = math.inf,
    *,
    inclusive: bool = True,
) -> float:
    """Require ``lo <= value <= hi`` (or strict when ``inclusive=False``)."""
    ok = (lo <= value <= hi) if inclusive else (lo < value < hi)
    if not ok:
        bracket = "[]" if inclusive else "()"
        raise ConfigurationError(
            f"{name} must be in {bracket[0]}{lo}, {hi}{bracket[1]}, got {value!r}"
        )
    return value


def check_probability(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``; return it."""
    return check_in_range(name, value, 0.0, 1.0)


def check_integer(name: str, value: Any) -> int:
    """Require an integral value (bool excluded); return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_one_of(name: str, value: Any, options: Sequence[Any]) -> Any:
    """Require ``value`` to be one of ``options``; return it."""
    if value not in options:
        raise ConfigurationError(
            f"{name} must be one of {list(options)!r}, got {value!r}"
        )
    return value


def check_finite_array(name: str, array: np.ndarray) -> np.ndarray:
    """Require every element of ``array`` to be finite; return it."""
    if not np.all(np.isfinite(array)):
        bad = int(np.size(array) - np.count_nonzero(np.isfinite(array)))
        raise ConfigurationError(
            f"{name} contains {bad} non-finite element(s) (nan/inf)"
        )
    return array
