"""Classical feedback controllers over the region-length actuator.

Both controllers below treat each server's relative latency error
``e_i = (avg − latency_i) / avg`` as the process variable and its
mapped-region length as the actuator — positive error (faster than the
system average) grows the region, negative shrinks it. Downstream
normalization makes the update effectively zero-sum, so only relative
magnitudes matter.

* :class:`PIController` — proportional-integral with conditional
  anti-windup: the integrator only accumulates while the actuator is
  unsaturated, the textbook cure for limit-cycling against the
  per-round step clamp.
* :class:`PolePlacementController` — first-order pole placement in the
  style of the brownout literature (see SNIPPETS rubbis exemplar): the
  process gain is estimated as ``alpha ≈ latency / length`` and the
  update ``Δlength = (1 − pole)·error / alpha`` places the closed-loop
  pole at ``pole``, i.e. the latency gap contracts by ``(1 − pole)``
  per round. Stateless — pole placement needs no memory, which keeps
  delegate fail-over trivially free.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Sequence

from ..core.errors import ConfigurationError
from ..core.tuning import LatencyReport
from .base import Controller

__all__ = ["PIController", "PolePlacementController"]


class PIController(Controller):
    """Proportional-integral control of relative latency error.

    Per server: ``factor = 1 + kp·e + ki·I`` with ``I`` the running
    error integral, the factor clamped to ``[1/max_step, max_step]``.
    The integral is replicated delegate state — :meth:`fork` copies it,
    so a failed-over delegate resumes with the identical integrator.
    """

    name = "pi"
    stateless = False

    def __init__(
        self,
        kp: float = 0.8,
        ki: float = 0.25,
        max_step: float = 1.5,
        deadband: float = 0.05,
        floor_length: float = 1e-4,
    ) -> None:
        if kp <= 0:
            raise ConfigurationError(f"kp must be > 0, got {kp}")
        if ki < 0:
            raise ConfigurationError(f"ki must be >= 0, got {ki}")
        self._validate_clamp(max_step, deadband)
        self.kp = float(kp)
        self.ki = float(ki)
        self.max_step = float(max_step)
        self.deadband = float(deadband)
        self.floor_length = float(floor_length)
        self._validate_common()
        #: Replicated state: per-server error integral.
        self._integral: Dict[object, float] = {}

    def observe(
        self,
        current_lengths: Mapping[object, float],
        reports: Sequence[LatencyReport],
    ) -> Dict[object, float]:
        by_id = self._reports_by_id(current_lengths, reports)
        avg = self.system_average(reports)
        lo, hi = 1.0 / self.max_step, self.max_step
        targets: Dict[object, float] = {}
        for sid, length in current_lengths.items():
            report = by_id.get(sid)
            if report is None or report.is_idle or math.isnan(avg) or avg <= 0:
                idle_rounds = report.idle_rounds if report is not None else 1
                targets[sid] = self._idle_target(length, idle_rounds)
                continue
            latency = max(report.mean_latency, 1e-12)
            error = (avg - latency) / avg
            if abs(error) <= self.deadband:
                error = 0.0
            integral = self._integral.get(sid, 0.0)
            factor = 1.0 + self.kp * error + self.ki * (integral + error)
            if lo < factor < hi:
                # Conditional anti-windup: integrate only while the
                # actuator is unsaturated, so the integral cannot wind
                # far past what the clamp will ever let it apply.
                self._integral[sid] = integral + error
            factor = min(max(factor, lo), hi)
            targets[sid] = length * factor
        return targets


class PolePlacementController(Controller):
    """First-order pole placement on the latency gap (stateless).

    ``Δlength = (1 − pole)·length·(avg/latency − 1)``: with process
    gain estimated as ``latency/length``, the closed-loop latency gap
    decays by ``(1 − pole)`` per round. ``pole → 1`` is sluggish,
    ``pole → 0`` one-shot (and oscillatory against model error); the
    per-round step stays clamped to ``[1/max_step, max_step]``.
    """

    name = "pole"
    stateless = True

    def __init__(
        self,
        pole: float = 0.5,
        max_step: float = 1.5,
        deadband: float = 0.05,
        floor_length: float = 1e-4,
    ) -> None:
        if not 0.0 <= pole < 1.0:
            raise ConfigurationError(f"pole must be in [0, 1), got {pole}")
        self._validate_clamp(max_step, deadband)
        self.pole = float(pole)
        self.max_step = float(max_step)
        self.deadband = float(deadband)
        self.floor_length = float(floor_length)
        self._validate_common()

    def observe(
        self,
        current_lengths: Mapping[object, float],
        reports: Sequence[LatencyReport],
    ) -> Dict[object, float]:
        by_id = self._reports_by_id(current_lengths, reports)
        avg = self.system_average(reports)
        targets: Dict[object, float] = {}
        for sid, length in current_lengths.items():
            report = by_id.get(sid)
            if report is None or report.is_idle or math.isnan(avg) or avg <= 0:
                idle_rounds = report.idle_rounds if report is not None else 1
                targets[sid] = self._idle_target(length, idle_rounds)
                continue
            latency = max(report.mean_latency, 1e-12)
            if abs(latency / avg - 1.0) <= self.deadband:
                targets[sid] = length
                continue
            target = length + (1.0 - self.pole) * length * (avg / latency - 1.0)
            lo, hi = length / self.max_step, length * self.max_step
            targets[sid] = min(max(target, lo), hi)
        return targets
