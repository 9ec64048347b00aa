"""Fixed-point analysis of the tuning controller.

The delegate's multiplicative update has a predictable equilibrium: at
the fixed point every active server reports the system-average latency,
and under an M/M/1 latency model that pins each server's share of the
mapped interval. This module computes

* the **equilibrium region lengths** for a given power vector and
  offered load (:func:`equilibrium_lengths`), and
* a **deterministic iteration** of the controller against the queueing
  model (:func:`iterate_controller`) that predicts how many rounds the
  real system needs to converge.

The analysis tests check the predictions against simulation: predicted
equilibria must match the simulator's converged region lengths within
the model error, which both validates the controller implementation and
documents *why* it converges (each iteration is a damped fixed-point
step; gain < 1 and the step clamp make it a contraction away from
saturation).

Model: server ``i`` with power ``p_i`` and mapped length ``L_i``
receives offered work rate ``λ·(L_i / Σ_j L_j)`` (re-hashing
renormalizes over mapped measure), giving utilization
``ρ_i = λ·s_i / p_i`` with share ``s_i`` and M/M/1 latency
``T_i = 1 / (p_i − λ·s_i)`` in work-unit time. Equal latencies across
active servers yield ``λ·s_i = p_i − c`` for a constant ``c`` fixed by
``Σ s_i = 1`` — capability-proportional shares shifted by a common
slack. Servers whose power is below the slack go idle (the paper's
incompetent-server regime), and the equilibrium is recomputed over the
survivors — a small water-filling problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..control import as_controller
from ..core.interval import HALF
from ..core.tuning import LatencyReport

__all__ = ["equilibrium_lengths", "ControllerTrace", "iterate_controller"]


def equilibrium_lengths(
    powers: Mapping[object, float], offered_rate: float
) -> Dict[object, float]:
    """Equal-latency equilibrium mapped lengths (water-filling).

    Parameters
    ----------
    powers:
        Server service rates (work units / second).
    offered_rate:
        Total offered work rate λ (work units / second); must be below
        total capacity.

    Returns
    -------
    dict
        Server → mapped length (summing to 1/2). Servers that the
        equal-latency condition would drive negative are parked at 0 —
        the analytical counterpart of the paper's idle weak servers.
    """
    if offered_rate <= 0:
        raise ValueError(f"offered_rate must be > 0, got {offered_rate}")
    total_power = sum(powers.values())
    if offered_rate >= total_power:
        raise ValueError(
            f"offered rate {offered_rate} saturates capacity {total_power}"
        )
    active = dict(powers)
    while True:
        # Equal latency: λ s_i = p_i - c with Σ_{active} s_i = 1
        # → c = (Σ p_i - λ) / n_active.
        n = len(active)
        slack = (sum(active.values()) - offered_rate) / n
        weakest = min(active, key=lambda sid: active[sid])
        if active[weakest] <= slack and len(active) > 1:
            # This server's share would be negative: it sits idle.
            del active[weakest]
            continue
        shares = {sid: (p - slack) / offered_rate for sid, p in active.items()}
        break
    lengths = {sid: 0.0 for sid in powers}
    for sid, share in shares.items():
        lengths[sid] = share * HALF
    return lengths


@dataclass
class ControllerTrace:
    """History of a deterministic controller iteration."""

    lengths: List[Dict[object, float]]
    latencies: List[Dict[object, float]]

    @property
    def rounds(self) -> int:
        """Iterations performed."""
        return len(self.lengths) - 1

    def converged_round(self, tolerance: float = 0.05) -> Optional[int]:
        """First round after which max relative length change < tolerance."""
        for r in range(1, len(self.lengths)):
            prev, cur = self.lengths[r - 1], self.lengths[r]
            deltas = [
                abs(cur[sid] - prev[sid]) / max(prev[sid], 1e-9)
                for sid in cur
                if max(prev[sid], cur[sid]) > 1e-6
            ]
            if deltas and max(deltas) < tolerance:
                return r
        return None

    @property
    def final_lengths(self) -> Dict[object, float]:
        """Lengths after the last iteration."""
        return dict(self.lengths[-1])


def _model_latency(power: float, rate: float) -> float:
    """M/M/1 response time at service rate ``power``, arrival work rate
    ``rate`` (work-units queue); linearized past ρ = 0.98 so the
    iteration stays finite through transients."""
    rho = rate / power
    if rho < 0.98:
        return 1.0 / (power - rate)
    return 1.0 / (power * 0.02) + (rho - 0.98) * 100.0 / power


def iterate_controller(
    powers: Mapping[object, float],
    offered_rate: float,
    rounds: int = 60,
    controller: Optional[object] = None,
) -> ControllerTrace:
    """Iterate the *actual* tuning rule against the queueing model.

    Starts from equal lengths (ANU's cold start) and alternates
    model-predicted latencies with real ``Controller.observe`` calls
    (any :class:`repro.control.Controller`; the paper's multiplicative
    rule by default). No randomness: this is the deterministic skeleton
    of the simulated dynamics, usable to predict convergence-round
    counts and equilibria.
    """
    ctrl = as_controller(controller)
    k = len(powers)
    lengths: Dict[object, float] = {sid: HALF / k for sid in powers}
    trace = ControllerTrace(lengths=[dict(lengths)], latencies=[])
    prev_lat: Dict[object, float] = {}
    for _ in range(rounds):
        total = sum(lengths.values())
        lat: Dict[object, float] = {}
        reports: List[LatencyReport] = []
        for sid, power in powers.items():
            share = lengths[sid] / total if total > 0 else 0.0
            rate = offered_rate * share
            if rate <= 1e-12:
                reports.append(
                    LatencyReport(sid, float("nan"), request_count=0, idle_rounds=1)
                )
                continue
            t = _model_latency(power, rate)
            lat[sid] = t
            reports.append(
                LatencyReport(
                    sid,
                    t,
                    request_count=max(1, int(rate * 1000)),
                    prev_mean_latency=prev_lat.get(sid, float("nan")),
                )
            )
        prev_lat = lat
        targets = ctrl.observe(lengths, reports)
        norm = HALF / sum(targets.values())
        lengths = {sid: v * norm for sid, v in targets.items()}
        trace.lengths.append(dict(lengths))
        trace.latencies.append(lat)
    return trace
