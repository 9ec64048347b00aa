"""Strict ``REPRO_*`` environment-knob parsing.

Every tunable the repo reads from the environment goes through these
validators — today ``REPRO_PARALLEL_WORKERS`` (the fan-out) and the
service's ``REPRO_SERVICE_*`` knobs (port, epoch seconds, client
count). The contract is uniform and deliberately unforgiving:

* unset or blank means *default* — whitespace never changes behaviour;
* anything else must parse **exactly**, or a :class:`ValueError` naming
  the variable and the offending value is raised. A typo in
  ``REPRO_PARALLEL_WORKERS=many`` must never silently serialize a sweep.

This module imports nothing from ``repro`` — it sits below every layer.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["env_int", "env_float"]


def _raw(name: str) -> Optional[str]:
    """The variable's value, or ``None`` when unset or blank."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    return raw


def env_int(
    name: str,
    default: Optional[int] = None,
    minimum: Optional[int] = None,
    maximum: Optional[int] = None,
) -> Optional[int]:
    """Strict integer knob; unset/blank resolves to ``default``.

    ``minimum``/``maximum`` are inclusive bounds; violating either
    raises with the bound spelled out (``must be >= 1``), matching the
    long-standing ``REPRO_PARALLEL_WORKERS`` error text.
    """
    raw = _raw(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        kind = "a positive integer" if minimum is not None and minimum >= 1 else "an integer"
        raise ValueError(f"{name} must be {kind}, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value}")
    return value


def env_float(
    name: str,
    default: Optional[float] = None,
    minimum: Optional[float] = None,
    exclusive_minimum: Optional[float] = None,
) -> Optional[float]:
    """Strict float knob; unset/blank resolves to ``default``."""
    raw = _raw(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None
    if value != value:  # NaN never compares; reject explicitly
        raise ValueError(f"{name} must be a number, got {raw!r}")
    if exclusive_minimum is not None and value <= exclusive_minimum:
        raise ValueError(f"{name} must be > {exclusive_minimum}, got {value}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value
