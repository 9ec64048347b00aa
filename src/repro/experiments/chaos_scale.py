"""The chaos-at-scale sweep: fault injection on the vectorized path.

``BENCH_robustness.json`` proves the chaos harness on the paper's
five-server cluster; this sweep asks the same robustness questions —
how fast are faults detected, how much capacity is lost, does
consistency recover, is every request accounted for — from paper scale
up to ≥1000 servers and ≥100k file sets, entirely on the vectorized
client path, against the same three policies as the ``scale`` sweep
(:data:`~repro.experiments.scale.SCALE_POLICIES`).

Each run compiles its ``(seed, fault_rate)`` schedule into a
deterministic event timeline (:mod:`repro.faults.timeline`), replays it
through :class:`~repro.engine.vector_faults.VectorChaosFaultLayer`
between cohort drains, and audits the array-native invariants
(conservation, moment accounting, mask-consistent assignment, layout
coverage) at every event and interval boundary. Rows carry the full
robustness report — detection latencies vs the analytic bound,
unavailability, consistency recovery time, the classified in-flight
remainder (``requests_lost`` must be 0) — plus the run's
:func:`~repro.faults.chaos.chaos_fingerprint`, so the bench is
bit-reproducible: a row is a pure function of (point, policy, seed),
and host time is measured by ``bench/`` alone.

The cells run through :func:`repro.experiments.sweep.run_sweep`; the
per-point workload *and* fault schedule are its shared inputs.

``python -m repro.experiments chaos-scale`` writes
``BENCH_chaos_scale.json``; ``--smoke`` runs a seconds-sized subset for
CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..engine import (
    ChaosConfig,
    ExperimentSpec,
    VectorChaosFaultLayer,
    VectorizedClientPath,
)
from ..faults import FaultSchedule, chaos_fingerprint, random_schedule
from ..metrics.robustness import robustness_report
from ..workloads.synthetic import Workload
from .scale import SCALE_POLICIES, make_scale_policy
from .sweep import (
    SweepSpec,
    format_point_label,
    point_columns,
    point_workload,
    policy_columns,
    scale_powers,
    sweep_cluster_config,
)

__all__ = [
    "SWEEP",
    "CHAOS_SCALE_POLICIES",
    "DEFAULT_POINTS",
    "SMOKE_POINTS",
    "ChaosScalePoint",
    "point_schedule",
    "run_chaos_scale_point",
    "render_chaos_scale",
]

CHAOS_SCALE_POLICIES: Tuple[str, ...] = SCALE_POLICIES


@dataclass(frozen=True)
class ChaosScalePoint:
    """One cluster size / workload size / fault intensity in the sweep."""

    n_servers: int
    n_filesets: int
    n_requests: int
    #: Expected faults per simulated second (Poisson, first 70% of run).
    fault_rate: float
    duration: float = 1_200.0
    tuning_interval: float = 120.0


#: Paper scale → two orders of magnitude up → the planet-scale point
#: the acceptance bar measures (≥1000 servers, ≥100k file sets). Fault
#: rates grow with the cluster so per-server fault exposure stays in
#: the same regime a large fleet actually sees.
DEFAULT_POINTS: Tuple[ChaosScalePoint, ...] = (
    ChaosScalePoint(
        n_servers=5, n_filesets=50, n_requests=66_401,
        fault_rate=0.002, duration=12_000.0,
    ),
    ChaosScalePoint(
        n_servers=100, n_filesets=10_000, n_requests=2_000_000,
        fault_rate=0.02,
    ),
    ChaosScalePoint(
        n_servers=1_000, n_filesets=100_000, n_requests=5_000_000,
        fault_rate=0.05,
    ),
)

#: CI-sized: seconds, not minutes, same code path end to end. Rates are
#: storm-level so faults actually land at these tiny horizons.
SMOKE_POINTS: Tuple[ChaosScalePoint, ...] = (
    ChaosScalePoint(
        n_servers=5, n_filesets=50, n_requests=6_000,
        fault_rate=0.02, duration=600.0, tuning_interval=60.0,
    ),
    ChaosScalePoint(
        n_servers=20, n_filesets=500, n_requests=30_000,
        fault_rate=0.02, duration=600.0, tuning_interval=60.0,
    ),
)


def point_schedule(
    point: ChaosScalePoint, seed: int, chaos: ChaosConfig
) -> FaultSchedule:
    """The point's deterministic fault script.

    Drawn from the same generator as the scalar chaos sweep; outages
    must outlive the detection bound, or crashes heal before the
    compiled detector can declare them.
    """
    return random_schedule(
        seed=seed,
        duration=point.duration,
        server_ids=list(scale_powers(point.n_servers)),
        fault_rate=point.fault_rate,
        min_outage=max(30.0, 3.0 * chaos.detection_latency_bound),
    )


def _prepare(
    point: ChaosScalePoint,
    seed: int,
    axes: Optional[Mapping[str, Sequence[str]]] = None,
) -> Tuple[Workload, FaultSchedule]:
    """The point's shared inputs: workload and fault script.

    Both are immutable, so one of each serves every policy — identical
    arrivals, identical faults.
    """
    return (
        point_workload(point, seed),
        point_schedule(point, seed, ChaosConfig(seed=seed)),
    )


def run_chaos_scale_point(
    point: ChaosScalePoint,
    policy_name: str,
    seed: int = 1,
    shared: Optional[Tuple[Workload, FaultSchedule]] = None,
) -> Dict[str, object]:
    """One vectorized chaos run; returns a BENCH_chaos_scale row.

    ``shared`` carries the sweep's per-point workload and fault script;
    a lone call generates its own. The row is the full robustness
    report plus the run's chaos fingerprint, the churn ledger, and the
    relocation ledger.
    """
    workload, schedule = shared or _prepare(point, seed)
    config = sweep_cluster_config(point)
    policy = make_scale_policy(policy_name, list(config.server_powers))
    engine = ExperimentSpec(
        workload=workload,
        policy=policy,
        config=config,
        client_path=VectorizedClientPath(),
        faults=VectorChaosFaultLayer(schedule=schedule, chaos=ChaosConfig(seed=seed)),
    ).build()
    result = engine.run_chaos()
    row = robustness_report(result, fault_rate=point.fault_rate).to_dict()
    row.update(
        {
            "policy": policy_name,
            **point_columns(point),
            "n_requests": int(result.requests_injected),
            "failure_declarations": result.failure_declarations,
            "recovery_declarations": result.recovery_declarations,
            **policy_columns(policy),
            "fingerprint": chaos_fingerprint(result),
        }
    )
    return row


def _header(seed: int, rows) -> Dict[str, object]:
    chaos = ChaosConfig(seed=seed)
    return {
        "detection_latency_bound_s": chaos.detection_latency_bound,
        "heartbeat": {
            "period_s": chaos.heartbeat_period,
            "misses": chaos.heartbeat_misses,
            "recoveries": chaos.heartbeat_recoveries,
        },
    }


def render_chaos_scale(payload: Dict[str, object]) -> str:
    """ASCII table of a sweep payload (the CLI's printed output)."""
    lines = [
        f"chaos-scale sweep: seed={payload['seed']} "
        f"detection bound={payload['detection_latency_bound_s']}s",
        f"{'point':>16} {'policy':>6} {'faults':>6} {'unavail':>8} "
        f"{'det.max':>8} {'recov(s)':>8} {'retries/req':>11} {'lost':>5} "
        f"{'violations':>10}",
    ]
    for row in payload["rows"]:
        point = format_point_label(row["n_servers"], row["n_filesets"])
        det = max(row["detection_latencies_s"], default=0.0)
        recov = row["consistency_recovery_s"]
        lines.append(
            f"{point:>16} {row['policy']:>6} {row['faults_injected']:>6} "
            f"{row['unavailability']:>8.4f} {det:>8.2f} "
            f"{recov if recov is not None else '—':>8} "
            f"{row['retries_per_request']:>11.4f} {row['requests_lost']:>5} "
            f"{row['invariant_violations']:>10}"
        )
    return "\n".join(lines)


def _failure(payload: Dict[str, object]) -> Optional[str]:
    """A recorded violation or lost request is a red build, not data."""
    violations = sum(row["invariant_violations"] for row in payload["rows"])
    lost = sum(row["requests_lost"] for row in payload["rows"])
    if violations or lost:
        return f"INVARIANT VIOLATIONS: {violations}, LOST REQUESTS: {lost}"
    return None


SWEEP = SweepSpec(
    name="chaos-scale",
    schema_version=4,
    description="Chaos at planet scale: compiled fault timelines on the "
    "vectorized path, paper scale up to 1000 servers / 100k file sets.",
    points=DEFAULT_POINTS,
    smoke_points=SMOKE_POINTS,
    axes={"policies": CHAOS_SCALE_POLICIES},
    prepare=_prepare,
    cell=run_chaos_scale_point,
    render=render_chaos_scale,
    header=_header,
    failure=_failure,
)
