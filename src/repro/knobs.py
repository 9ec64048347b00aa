"""Strict ``REPRO_*`` environment-knob parsing — one validator, one registry.

Every tunable the repo reads from the environment goes through this
module. The contract is uniform and deliberately unforgiving:

* unset or blank means *default* — whitespace never changes behaviour;
* anything else must parse **exactly**, or a :class:`ValueError` naming
  the variable and the offending value is raised. A typo in
  ``REPRO_CACHE=offf`` or ``REPRO_PARALLEL_WORKERS=many`` must never
  silently enable a cache or serialize a sweep.

Historically the cache (``REPRO_CACHE``) and the fan-out
(``REPRO_PARALLEL_WORKERS``) each carried a private copy of this logic;
they now share these parsers, and the service layer registers its
``REPRO_SERVICE_*`` knobs (port, epoch seconds, client count) through
the same registry. :func:`describe_knobs` renders the registry for
``--help`` output and docs, so the set of recognized variables is
discoverable in one place.

This module imports nothing from ``repro`` — it sits below every layer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = [
    "Knob",
    "KNOBS",
    "register_knob",
    "env_flag",
    "env_int",
    "env_float",
    "describe_knobs",
]

#: Spellings accepted for boolean knobs (after strip + lower).
FLAG_TRUTHY: Tuple[str, ...] = ("on", "1", "true", "yes")
FLAG_FALSY: Tuple[str, ...] = ("off", "0", "false", "no")


@dataclass(frozen=True)
class Knob:
    """One registered environment variable.

    ``kind`` is the parser family (``flag`` / ``int`` / ``float``);
    ``default`` is what unset/blank resolves to (``None`` when the
    consumer supplies a computed default, e.g. the CPU count).
    """

    name: str
    kind: str
    default: object
    help: str


#: The registry: variable name -> :class:`Knob`. Consumers register at
#: import time; parse calls work for unregistered names too (tests).
KNOBS: Dict[str, Knob] = {}


def register_knob(
    name: str,
    kind: str,
    default: object,
    help: str,  # noqa: A002 - mirrors the dataclass field
) -> Knob:
    """Record a knob in the registry (idempotent; last writer wins)."""
    knob = Knob(name=name, kind=kind, default=default, help=help)
    KNOBS[name] = knob
    return knob


def describe_knobs() -> str:
    """Human-readable registry dump (one line per knob)."""
    lines = []
    for name in sorted(KNOBS):
        knob = KNOBS[name]
        lines.append(f"{name} ({knob.kind}, default {knob.default!r}): {knob.help}")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# parsers
# ---------------------------------------------------------------------- #
def _raw(name: str) -> Optional[str]:
    """The variable's value, or ``None`` when unset or blank."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    return raw


def env_flag(name: str, default: bool = True, blank: Optional[bool] = None) -> bool:
    """Strict boolean knob: ``on/1/true/yes`` vs ``off/0/false/no``.

    Unset resolves to ``default``; a *set-but-blank* variable resolves
    to ``blank`` when given (``REPRO_CACHE=`` historically means
    "enabled") and to ``default`` otherwise. Any other value raises.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.strip().lower()
    if not value:
        return default if blank is None else blank
    if value in FLAG_TRUTHY:
        return True
    if value in FLAG_FALSY:
        return False
    raise ValueError(
        f"{name} must be one of "
        f"{'/'.join(FLAG_TRUTHY + FLAG_FALSY)} (got {raw!r})"
    )


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
