"""Demand forecasting as a controller *wrapper*.

Every controller in this package is reactive: it moves load only after
a latency imbalance has already been observed. Under non-stationary
demand (the hotspot and flash-crowd scenarios of the control bench)
that means at least one full tuning interval of degraded latency
before any response. :class:`ForecastingController` adds the
feed-forward term: a Holt (double-exponential: level + trend) forecast
of each server's next-interval request demand, used to *pre-scale* the
wrapped controller's targets — a server whose demand is forecast to
rise gets its region trimmed before the latency ever shows it, and
vice versa.

The pre-scale is deliberately gentle: ``(forecast / level)^(-strength)``
clamped to ``[1/prescale_cap, prescale_cap]``, so under stationary
demand (forecast ≈ level) the wrapper is a near-no-op and the wrapped
controller's behaviour — including its convergence proof obligations —
is preserved. Forecast state is replicated delegate state like any
other (:meth:`fork` deep-copies the wrapper *and* the inner
controller).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError
from ..core.tuning import LatencyReport
from .base import Controller
from .multiplicative import MultiplicativeController

__all__ = ["ForecastingController"]


class ForecastingController(Controller):
    """Holt per-server demand forecast pre-scaling an inner controller.

    Without ``inner``, any further keywords configure the default inner
    :class:`MultiplicativeController` (e.g. ``floor_length=2e-4``).
    """

    stateless = False

    def __init__(
        self,
        inner: Optional[Controller] = None,
        alpha: float = 0.5,
        beta: float = 0.3,
        horizon: float = 1.0,
        strength: float = 0.5,
        prescale_cap: float = 1.3,
        **inner_knobs: object,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        if not 0.0 <= beta <= 1.0:
            raise ConfigurationError(f"beta must be in [0, 1], got {beta}")
        if horizon < 0:
            raise ConfigurationError(f"horizon must be >= 0, got {horizon}")
        if strength < 0:
            raise ConfigurationError(f"strength must be >= 0, got {strength}")
        if prescale_cap <= 1.0:
            raise ConfigurationError(
                f"prescale_cap must be > 1, got {prescale_cap}"
            )
        if inner is not None and inner_knobs:
            raise ConfigurationError(
                f"knobs {sorted(inner_knobs)} configure the default inner "
                "controller; set them on the inner controller passed instead"
            )
        self.inner = (
            inner if inner is not None else MultiplicativeController(**inner_knobs)
        )
        self.name = f"forecast+{self.inner.name}"
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.horizon = float(horizon)
        self.strength = float(strength)
        self.prescale_cap = float(prescale_cap)
        #: Replicated state: per-server Holt (level, trend) on request
        #: counts.
        self._holt: Dict[object, Tuple[float, float]] = {}

    # The inner controller owns the scalar knobs the consumers read.
    @property
    def floor_length(self) -> float:  # type: ignore[override]
        return self.inner.floor_length

    @property
    def averaging(self) -> str:  # type: ignore[override]
        return self.inner.averaging

    def system_average(self, reports: Sequence[LatencyReport]) -> float:
        return self.inner.system_average(reports)

    def observe(
        self,
        current_lengths: Mapping[object, float],
        reports: Sequence[LatencyReport],
    ) -> Dict[object, float]:
        by_id = self._reports_by_id(current_lengths, reports)
        targets = self.inner.observe(current_lengths, reports)
        lo, hi = 1.0 / self.prescale_cap, self.prescale_cap
        for sid in current_lengths:
            report = by_id.get(sid)
            if report is None or report.is_idle:
                # No demand signal: decay any stored trend toward zero
                # rather than extrapolating a stale one forever.
                held = self._holt.get(sid)
                if held is not None:
                    self._holt[sid] = (held[0], (1.0 - self.beta) * held[1])
                continue
            demand = float(report.request_count)
            held = self._holt.get(sid)
            if held is None:
                self._holt[sid] = (demand, 0.0)
                continue
            level, trend = held
            new_level = self.alpha * demand + (1.0 - self.alpha) * (level + trend)
            new_trend = self.beta * (new_level - level) + (1.0 - self.beta) * trend
            self._holt[sid] = (new_level, new_trend)
            forecast = max(new_level + self.horizon * new_trend, 1e-9)
            # Demand forecast rising → trim the region ahead of the
            # latency signal; falling → grow it. Neutral at no change.
            scale = (forecast / max(new_level, 1e-9)) ** (-self.strength)
            targets[sid] *= min(max(scale, lo), hi)
        return targets
