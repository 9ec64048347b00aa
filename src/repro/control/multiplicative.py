"""The paper's multiplicative averaging rule — the default controller.

Each tuning interval (two minutes in the paper), every server reports
the latency it delivered over the interval. The delegate "examines all
latencies and comes up with an 'average' value for the whole system
[and] scales down the mapped regions for servers above the average and
scales up the mapped regions for servers below the average" (§4).

The paper leaves the averaging rule and the scaling magnitudes to its
companion report [40]. We implement the stated contract exactly —
monotone scaling around a system average — and expose the unspecified
knobs:

* ``averaging``: arithmetic mean, request-weighted mean, or trimmed
  mean over the reporting servers;
* ``gain``: exponent of the multiplicative update
  ``factor_i = (avg / latency_i) ** gain``;
* ``max_step`` / ``grow_step``: per-round clamps on the shrink and grow
  factors, which damp oscillation (the paper's "relatively
  conservative in moving load in response to short-term bursts");
* ``deadband``: relative distance from the average inside which a
  server's region is left untouched;
* ``idle_seed`` / ``idle_backoff``: servers that served nothing are
  probed back in with a small seed every ``idle_backoff`` idle rounds
  (the paper lets extremely weak servers mostly sit idle).

The averaging-rule ablation bench (A1 in DESIGN.md) shows the headline
results are insensitive to these choices. ``tests/control/test_golden.py``
pins the rule's output to recorded digests.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Sequence

from ..core.errors import ConfigurationError
from ..core.tuning import LatencyReport
from .base import Controller

__all__ = ["MultiplicativeController"]

#: Below this measure, a shed/grow mismatch is treated as closed.
EPS_DELTA = 1e-12


class MultiplicativeController(Controller):
    """Scale regions by ``(avg / latency) ** gain`` around the average.

    See the module docstring for the meaning of each knob. The defaults
    reproduce the paper's qualitative behaviour: convergence within a
    few rounds, conservative movement afterwards.
    """

    name = "multiplicative"
    stateless = True

    def __init__(
        self,
        averaging: str = "weighted",
        gain: float = 0.3,
        max_step: float = 1.5,
        grow_step: float = 1.2,
        deadband: float = 0.4,
        idle_seed: float = 0.03,
        idle_backoff: int = 5,
        floor_length: float = 1e-4,
    ) -> None:
        if gain <= 0:
            raise ConfigurationError(f"gain must be > 0, got {gain}")
        self._validate_clamp(max_step, deadband)
        if not 1.0 < grow_step <= max_step:
            raise ConfigurationError(
                f"grow_step must be in (1, max_step], got {grow_step}"
            )
        self.averaging = averaging
        self.gain = gain
        self.max_step = max_step
        self.grow_step = grow_step
        self.deadband = deadband
        self.idle_seed = idle_seed
        self.idle_backoff = idle_backoff
        self.floor_length = floor_length
        self._validate_common()

    def observe(
        self,
        current_lengths: Mapping[object, float],
        reports: Sequence[LatencyReport],
    ) -> Dict[object, float]:
        """New target lengths from current lengths and interval reports.

        The result is *not yet normalized*; the layout engine normalizes
        to the half-occupancy sum when applying. Servers above the
        average get factors < 1, below-average servers factors > 1, each
        clamped to ``[1/max_step, grow_step]``.
        """
        by_id = self._reports_by_id(current_lengths, reports)
        avg = self.system_average(reports)
        # Pass 1: per-server desired deltas. Servers inside the deadband
        # get delta 0 — this is the "relatively conservative in moving
        # load in response to short-term bursts" stance of §5.3: noise
        # around the average must not cause movement.
        deltas: Dict[object, float] = {}
        ratios: Dict[object, float] = {}  # latency / avg for active servers
        blocked: set = set()  # above band but not persistently: do not touch
        for sid, length in current_lengths.items():
            report = by_id.get(sid)
            if report is None or report.is_idle or math.isnan(avg) or avg <= 0:
                idle_rounds = report.idle_rounds if report is not None else 1
                deltas[sid] = self._idle_target(length, idle_rounds) - length
                continue
            latency = max(report.mean_latency, 1e-12)
            ratio = latency / avg
            ratios[sid] = ratio
            if abs(ratio - 1.0) <= self.deadband:
                deltas[sid] = 0.0
                continue
            if ratio > 1.0 and not self._persistently_slow(report, avg):
                # One bursty window is not a reason to shed: a heavy-
                # tailed arrival process produces isolated latency
                # spikes that resolve by themselves; shedding on them
                # turns the hot file set into a hot potato that
                # destabilizes server after server.
                deltas[sid] = 0.0
                blocked.add(sid)
                continue
            factor = (avg / latency) ** self.gain
            # Asymmetric clamp: shed up to max_step fast (an overloaded
            # server must get relief), but grow by at most grow_step —
            # growth overshoot drives the fastest server toward
            # saturation, where the next burst creates a storm.
            factor = min(max(factor, 1.0 / self.max_step), self.grow_step)
            deltas[sid] = length * (factor - 1.0)
        # Pass 2: make the update zero-sum. Shed measure must equal grown
        # measure so that servers inside the deadband keep *bit-identical*
        # regions — a global renormalization would ripple every boundary
        # every round and move file sets between perfectly healthy
        # servers (each arriving cache-cold), which destabilizes the
        # cluster under bursty arrivals.
        self._match_deltas(deltas, ratios, current_lengths, blocked)
        return {sid: current_lengths[sid] + deltas[sid] for sid in current_lengths}

    def _persistently_slow(self, report: LatencyReport, avg: float) -> bool:
        """Above-band latency in this *and* the previous window?

        A server with no previous-window information (first round, or
        just recovered) is treated as persistent — early convergence
        must not be delayed by the burst filter.
        """
        prev = report.prev_mean_latency
        if math.isnan(prev):
            return True
        return prev / avg > 1.0 + self.deadband

    def _match_deltas(
        self,
        deltas: Dict[object, float],
        ratios: Dict[object, float],
        lengths: Mapping[object, float],
        blocked: set,
    ) -> None:
        """Balance shed against growth in place (zero-sum update).

        When shed exceeds growth demand, in-band servers *below* the
        average are drafted as recipients (weighted by how far below
        they sit); symmetrically, in-band servers above the average
        donate when growth exceeds shed. If drafting cannot close the
        gap, the larger side is scaled down — moving less is always
        safe, and an unmatched shrink would strand capacity.
        """
        shed = -sum(d for d in deltas.values() if d < 0)
        grow = sum(d for d in deltas.values() if d > 0)
        gap = shed - grow
        if abs(gap) > EPS_DELTA:
            if gap > 0:
                # Draft in-band, below-average servers to absorb measure.
                weights = {
                    sid: lengths[sid] * (1.0 - r)
                    for sid, r in ratios.items()
                    if deltas.get(sid, 0.0) == 0.0 and r < 1.0 and lengths[sid] > 0
                }
                absorbed = self._distribute(deltas, weights, gap, cap_sign=+1, lengths=lengths)
                remaining = gap - absorbed
                if remaining > EPS_DELTA and shed > 0:
                    scale = (shed - remaining) / shed
                    for sid, d in deltas.items():
                        if d < 0:
                            deltas[sid] = d * scale
            else:
                # Draft in-band, above-average servers to donate measure
                # (burst-blocked servers are exempt: donation is the
                # shedding the filter just vetoed).
                weights = {
                    sid: lengths[sid] * (r - 1.0)
                    for sid, r in ratios.items()
                    if deltas.get(sid, 0.0) == 0.0
                    and r > 1.0
                    and lengths[sid] > 0
                    and sid not in blocked
                }
                if not weights:
                    # Nobody is above average (a calm cluster): fund the
                    # growth — typically an idle-server probe — with a
                    # small proportional haircut across all active
                    # in-band servers. Without this fallback a parked
                    # server could never be probed back in.
                    weights = {
                        sid: lengths[sid]
                        for sid, r in ratios.items()
                        if deltas.get(sid, 0.0) == 0.0
                        and lengths[sid] > 0
                        and sid not in blocked
                    }
                donated = self._distribute(deltas, weights, -gap, cap_sign=-1, lengths=lengths)
                remaining = -gap - donated
                if remaining > EPS_DELTA and grow > 0:
                    scale = (grow - remaining) / grow
                    for sid, d in deltas.items():
                        if d > 0:
                            deltas[sid] = d * scale

    def _distribute(
        self,
        deltas: Dict[object, float],
        weights: Dict[object, float],
        amount: float,
        cap_sign: int,
        lengths: Mapping[object, float],
    ) -> float:
        """Spread ``amount`` across ``weights`` keys, capped per server.

        ``cap_sign=+1`` grows recipients (cap: ``grow_step`` expansion);
        ``cap_sign=-1`` shrinks donors (cap: ``1/max_step`` reduction).
        Returns the measure actually placed.
        """
        total_w = sum(weights.values())
        placed = 0.0
        if total_w <= 0 or amount <= 0:
            return 0.0
        for sid, w in weights.items():
            share = amount * w / total_w
            if cap_sign > 0:
                cap = lengths[sid] * (self.grow_step - 1.0)
            else:
                cap = lengths[sid] * (1.0 - 1.0 / self.max_step)
            take = min(share, cap)
            deltas[sid] = deltas.get(sid, 0.0) + cap_sign * take
            placed += take
        return placed
