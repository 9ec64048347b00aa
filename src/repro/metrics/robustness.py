"""Robustness metrics for chaos runs.

A chaos run answers three questions the steady-state figures cannot:

* **How long was capacity gone?** Unavailability windows — fault
  instant to layout re-admission — summed over all failures and
  normalized by total server-time.
* **How fast were faults noticed?** Observed detection latency of every
  declared failure, compared against the heartbeat monitor's analytic
  bound ``period × (misses + 1)``.
* **Did consistency come back?** The paper's headline metric is the
  coefficient of variation of per-server latency; after the last fault
  heals, the per-interval CV must return to its pre-fault band. The
  time that takes is the *consistency recovery time*.

Everything here consumes a :class:`~repro.engine.record.ChaosResult`
and produces the plain-data :class:`RobustnessReport` that
``BENCH_robustness.json`` serializes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..engine.record import ChaosResult
from .consistency import coefficient_of_variation

__all__ = [
    "RobustnessReport",
    "robustness_report",
    "consistency_cv_series",
    "consistency_recovery_time",
]


def consistency_cv_series(result: ChaosResult) -> Tuple[np.ndarray, np.ndarray]:
    """Per-interval CV of per-server mean latency over the run.

    Groups the per-server latency series by report timestamp (failed
    servers skip reports, so the server set varies per interval) and
    computes the CV across the servers that reported a positive mean.
    Returns ``(times, cvs)``; intervals with fewer than two active
    servers yield ``nan``.
    """
    buckets: Dict[float, List[float]] = {}
    for series in result.base.server_latency.values():
        for t, v in zip(series.times(), series.values()):
            buckets.setdefault(float(t), []).append(float(v))
    times = np.array(sorted(buckets), dtype=np.float64)
    cvs = np.array(
        [
            coefficient_of_variation(
                np.array([v for v in buckets[t] if v > 0], dtype=np.float64)
            )
            for t in times
        ],
        dtype=np.float64,
    )
    return times, cvs


def consistency_recovery_time(
    result: ChaosResult, tolerance: float = 1.5
) -> Optional[float]:
    """Seconds from the last heal until consistency is back in band.

    The pre-fault band is the median per-interval CV before the first
    fault fires; recovery is the first interval after the *last* fault
    window closes whose CV is at most ``tolerance ×`` that baseline.
    Returns ``0.0`` if consistency never left the band, ``None`` if it
    never returned (or the run has no usable intervals), and ``nan``-free
    otherwise.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    times, cvs = consistency_cv_series(result)
    valid = ~np.isnan(cvs)
    if not valid.any():
        return None
    faults = [t for t, _, _ in result.applied]
    if not faults:
        return 0.0
    first_fault = min(faults)
    horizon = result.base.duration
    last_heal = max(
        (rec.unavailable_until(horizon) for rec in result.failures),
        default=max(faults),
    )
    last_heal = max(last_heal, max(faults))
    before = valid & (times < first_fault)
    baseline = float(np.median(cvs[before])) if before.any() else float(np.nanmedian(cvs))
    if math.isnan(baseline) or baseline <= 0:
        return None
    band = tolerance * baseline
    after = valid & (times >= last_heal)
    if not after.any():
        return None
    for t, cv in zip(times[after], cvs[after]):
        if cv <= band:
            return float(max(0.0, t - last_heal))
    return None


@dataclass(frozen=True)
class RobustnessReport:
    """Plain-data robustness summary of one chaos run."""

    seed: int
    fault_rate: Optional[float]
    faults_injected: int
    faults_skipped: int
    #: Server-seconds of lost capacity and its share of total server-time.
    server_downtime: float
    unavailability: float
    #: Observed failure-detection latencies vs the analytic bound.
    detection_latencies: Tuple[float, ...]
    detection_latency_bound: float
    #: Client-side hardening ledger.
    requests_injected: int
    requests_completed: int
    requests_failed: int
    requests_in_flight: int
    retries_per_request: float
    redirects: int
    timeouts: int
    #: Continuous-audit outcome.
    invariant_checks: int
    invariant_violations: int
    #: Consistency recovery after the last fault (None = not recovered).
    consistency_recovery_s: Optional[float]
    #: Whole-run aggregate latency (for cross-rate comparison).
    mean_latency: float
    #: Classified in-flight remainder at the horizon (defaults keep
    #: older pickled/row constructors valid): queued on a live server,
    #: awaiting backoff/re-location, or held in the dispatch latch.
    requests_in_flight_queued: int = 0
    requests_in_flight_backoff: int = 0
    requests_in_flight_dispatch: int = 0
    #: In-flight requests the classification cannot account for — zero
    #: by the conservation invariant.
    requests_lost: int = 0

    # ------------------------------------------------------------------ #
    @property
    def max_detection_latency(self) -> float:
        """Slowest observed declaration (0 if no fault was detected)."""
        return max(self.detection_latencies, default=0.0)

    @property
    def detection_within_bound(self) -> bool:
        """Every declaration beat the analytic bound."""
        return self.max_detection_latency <= self.detection_latency_bound + 1e-9

    def to_dict(self) -> Dict:
        """JSON-ready representation (``BENCH_robustness.json`` rows)."""
        return {
            "seed": self.seed,
            "fault_rate": self.fault_rate,
            "faults_injected": self.faults_injected,
            "faults_skipped": self.faults_skipped,
            "server_downtime_s": round(self.server_downtime, 3),
            "unavailability": round(self.unavailability, 6),
            "detection_latencies_s": [round(x, 3) for x in self.detection_latencies],
            "detection_latency_bound_s": self.detection_latency_bound,
            "detection_within_bound": self.detection_within_bound,
            "requests_injected": self.requests_injected,
            "requests_completed": self.requests_completed,
            "requests_failed": self.requests_failed,
            "requests_in_flight": self.requests_in_flight,
            "requests_in_flight_queued": self.requests_in_flight_queued,
            "requests_in_flight_backoff": self.requests_in_flight_backoff,
            "requests_in_flight_dispatch": self.requests_in_flight_dispatch,
            "requests_lost": self.requests_lost,
            "retries_per_request": round(self.retries_per_request, 6),
            "redirects": self.redirects,
            "timeouts": self.timeouts,
            "invariant_checks": self.invariant_checks,
            "invariant_violations": self.invariant_violations,
            "consistency_recovery_s": (
                round(self.consistency_recovery_s, 3)
                if self.consistency_recovery_s is not None
                else None
            ),
            "mean_latency_s": round(self.mean_latency, 6),
        }


def robustness_report(
    result: ChaosResult, fault_rate: Optional[float] = None
) -> RobustnessReport:
    """Distill a chaos run into its robustness observables."""
    mean = result.base.aggregate_mean_latency
    return RobustnessReport(
        seed=result.seed,
        fault_rate=fault_rate,
        faults_injected=result.faults_injected,
        faults_skipped=result.faults_skipped,
        server_downtime=result.server_downtime,
        unavailability=result.unavailability,
        detection_latencies=tuple(result.detection_latencies),
        detection_latency_bound=result.detection_latency_bound,
        requests_injected=result.requests_injected,
        requests_completed=result.requests_completed,
        requests_failed=result.requests_failed,
        requests_in_flight=result.requests_in_flight,
        retries_per_request=result.retries_per_request,
        redirects=result.redirects,
        timeouts=result.timeouts,
        invariant_checks=result.invariant_checks,
        invariant_violations=result.invariant_violations,
        consistency_recovery_s=consistency_recovery_time(result),
        mean_latency=mean if not math.isnan(mean) else 0.0,
        requests_in_flight_queued=result.requests_in_flight_queued,
        requests_in_flight_backoff=result.requests_in_flight_backoff,
        requests_in_flight_dispatch=result.requests_in_flight_dispatch,
        requests_lost=result.requests_lost,
    )
