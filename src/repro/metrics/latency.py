"""Latency metrics over cluster results.

Helpers that turn a :class:`~repro.engine.record.ClusterResult` into
the quantities the paper plots: per-server latency-versus-time series
(Figures 4, 5), aggregate mean ± std (Figure 6a), per-server means
(Figure 6b), and steady-state window statistics used to judge
convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..engine.record import ClusterResult

__all__ = [
    "AggregateLatency",
    "aggregate_latency",
    "per_server_mean",
    "latency_series",
    "steady_state_means",
    "convergence_round",
]


@dataclass(frozen=True)
class AggregateLatency:
    """Figure 6(a): aggregate mean latency and its standard deviation."""

    policy: str
    mean: float
    std: float
    count: int


def aggregate_latency(result: ClusterResult) -> AggregateLatency:
    """Aggregate latency of all completed requests in a run."""
    return AggregateLatency(
        policy=result.policy_name,
        mean=result.aggregate_mean_latency,
        std=result.aggregate_std_latency,
        count=int(result.all_latencies.size),
    )


def per_server_mean(result: ClusterResult) -> Dict[object, Tuple[float, int]]:
    """Figure 6(b): per-server (mean latency, request count)."""
    return {
        sid: (tally.mean, tally.count)
        for sid, tally in result.server_tally.items()
    }


def latency_series(result: ClusterResult) -> Dict[object, Tuple[np.ndarray, np.ndarray]]:
    """Per-server (times, interval-mean-latency) series (Figures 4/5)."""
    return {sid: (ts.times(), ts.values()) for sid, ts in result.server_latency.items()}


def steady_state_means(
    result: ClusterResult, from_time: Optional[float] = None
) -> Dict[object, float]:
    """Per-server mean interval latency after ``from_time``.

    Default window: the second half of the run — well past ANU's
    convergence ("several rounds of load placement tuning", §5.2.1).
    ``nan`` marks servers idle throughout the window.
    """
    t0 = from_time if from_time is not None else result.duration / 2.0
    out: Dict[object, float] = {}
    for sid, ts in result.server_latency.items():
        _, values = ts.window(t0, result.duration + 1.0)
        finite = values[~np.isnan(values)]
        out[sid] = float(finite.mean()) if finite.size else math.nan
    return out


def convergence_round(
    result: ClusterResult,
    tolerance: float = 0.5,
    min_quiet: int = 3,
) -> Optional[int]:
    """First tuning round after which active servers stay consistent.

    A round is "quiet" when every active (non-idle) server's interval
    latency is within ``tolerance`` (relative) of the across-server
    median for that round. Returns the first round index starting a
    streak of ``min_quiet`` quiet rounds, or ``None`` if never reached.
    This operationalizes the paper's "quickly adapts to heterogeneity
    and reaches load balance after several rounds".
    """
    series = [ts.values() for ts in result.server_latency.values()]
    if not series:
        return None
    n_rounds = min(len(v) for v in series)
    quiet_streak = 0
    for r in range(n_rounds):
        vals = np.array([v[r] for v in series])
        active = vals[~np.isnan(vals)]
        if active.size == 0:
            quiet_streak = 0
            continue
        med = float(np.median(active))
        if med <= 0:
            quiet_streak = 0
            continue
        if np.all(np.abs(active / med - 1.0) <= tolerance):
            quiet_streak += 1
            if quiet_streak >= min_quiet:
                return r - min_quiet + 2  # 1-based round index of streak start
        else:
            quiet_streak = 0
    return None
