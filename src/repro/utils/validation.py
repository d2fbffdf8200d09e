"""Argument validation helpers shared by configuration and hardware models."""

from __future__ import annotations

import math
from numbers import Real


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with ``message`` when ``condition`` is false."""
    if not condition:
        raise ValueError(message)


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_nonnegative_int(value: int, name: str) -> int:
    """Validate that ``value`` is a non-negative integer and return it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def check_positive_finite(value: float, name: str) -> float:
    """Validate that ``value`` is a finite, positive real number and return it."""
    if not isinstance(value, Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    # NaN compares false with everything, so test finiteness first.
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_power_of_two(value: int, name: str) -> int:
    """Validate that ``value`` is a positive power of two and return it."""
    check_positive_int(value, name)
    if value & (value - 1) != 0:
        raise ValueError(f"{name} must be a power of two, got {value}")
    return value
