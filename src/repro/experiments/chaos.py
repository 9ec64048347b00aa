"""The ``chaos`` experiment scenario: robustness under seeded faults.

Sweeps fault rates over the paper's five-server ANU cluster, each run
driven by the full chaos harness (seeded fault injection, heartbeat
detection with hysteresis, hardened client, continuous invariant
audit), and reports the robustness observables into
``BENCH_robustness.json``:

* unavailability (server-seconds of lost capacity / total server-time);
* failure-detection latency against the heartbeat monitor's analytic
  bound ``period × (misses + 1)``;
* retries per request on the hardened client path;
* post-fault recovery time of the paper's consistency metric (the
  per-interval CV of per-server latency returning to its pre-fault
  band).

Every run is a pure function of ``(seed, scale, fault_rate)``: the
fault schedule is drawn from the seed, every stochastic component
(link faults, backoff jitter) derives from it, and each row carries the
run's :func:`~repro.faults.chaos.chaos_fingerprint` — so the bench is
bit-reproducible and the determinism test simply compares two sweeps.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..core.hashing import HashFamily
from ..engine import ChaosConfig, ChaosResult, ExperimentSpec, chaos_layers
from ..faults import FaultSchedule, chaos_fingerprint, random_schedule
from ..metrics.robustness import RobustnessReport, robustness_report
from ..policies import ANURandomization
from ..workloads.synthetic import generate_synthetic
from .config import ExperimentConfig, paper_config

__all__ = [
    "DEFAULT_FAULT_RATES",
    "run_chaos",
    "run_chaos_sweep",
    "render_chaos",
]

#: Faults per simulated second: quiet, moderate, and stormy. The quiet
#: rate still lands a few faults at the default 600 s scale.
DEFAULT_FAULT_RATES: Tuple[float, ...] = (0.005, 0.01, 0.02)

#: Default scale of a chaos run (0.05 × the 200-minute paper run = 600 s).
DEFAULT_SCALE = 0.05


def run_chaos(
    seed: int = 1,
    scale: float = DEFAULT_SCALE,
    fault_rate: float = 0.01,
    schedule: Optional[FaultSchedule] = None,
    chaos: Optional[ChaosConfig] = None,
    config: Optional[ExperimentConfig] = None,
) -> ChaosResult:
    """One chaos run over the paper's ANU cluster.

    The fault schedule (unless given explicitly) is drawn from ``seed``
    at ``fault_rate`` faults per simulated second; the harness seed is
    the same ``seed``, so the whole run replays from one integer.
    """
    config = config or paper_config(seed=seed, scale=scale)
    workload = generate_synthetic(config.synthetic_config(), seed=config.seed)
    chaos = chaos or ChaosConfig(seed=seed)
    if schedule is None:
        schedule = random_schedule(
            seed=seed,
            duration=workload.duration,
            server_ids=list(config.powers),
            fault_rate=fault_rate,
            # Outages must outlive the detection bound, or crashes heal
            # before the detector can declare them.
            min_outage=max(30.0, 3.0 * chaos.detection_latency_bound),
        )
    policy = ANURandomization(list(config.powers), hash_family=HashFamily(seed=0))
    spec = ExperimentSpec(
        workload, policy, config.cluster_config(), **chaos_layers(schedule, chaos)
    )
    return spec.build().run_chaos()


def run_chaos_sweep(
    seed: int = 1,
    scale: float = DEFAULT_SCALE,
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
) -> Dict:
    """Sweep fault rates; returns the ``BENCH_robustness.json`` payload."""
    if not fault_rates:
        raise ValueError("need at least one fault rate")
    chaos = ChaosConfig(seed=seed)
    rows = []
    for rate in fault_rates:
        result = run_chaos(seed=seed, scale=scale, fault_rate=rate, chaos=chaos)
        report = robustness_report(result, fault_rate=rate)
        row = report.to_dict()
        row["fingerprint"] = chaos_fingerprint(result)
        rows.append(row)
    return {
        "bench": "robustness",
        "seed": seed,
        "scale": scale,
        "detection_latency_bound_s": chaos.detection_latency_bound,
        "heartbeat": {
            "period_s": chaos.heartbeat_period,
            "misses": chaos.heartbeat_misses,
            "recoveries": chaos.heartbeat_recoveries,
        },
        "retry": {
            "request_timeout_s": chaos.retry.request_timeout,
            "max_attempts": chaos.retry.max_attempts,
            "backoff_base_s": chaos.retry.backoff_base,
            "backoff_cap_s": chaos.retry.backoff_cap,
            "jitter": chaos.retry.jitter,
        },
        "rows": rows,
    }


def render_chaos(payload: Dict) -> str:
    """ASCII table of a sweep payload (the CLI's printed output)."""
    lines = [
        f"chaos sweep: seed={payload['seed']} scale={payload['scale']} "
        f"detection bound={payload['detection_latency_bound_s']}s",
        f"{'rate':>8} {'faults':>6} {'unavail':>8} {'det.max':>8} "
        f"{'retries/req':>11} {'failed':>6} {'recov(s)':>8} {'violations':>10}",
    ]
    for row in payload["rows"]:
        det = max(row["detection_latencies_s"], default=0.0)
        recov = row["consistency_recovery_s"]
        lines.append(
            f"{row['fault_rate']:>8} {row['faults_injected']:>6} "
            f"{row['unavailability']:>8.4f} {det:>8.2f} "
            f"{row['retries_per_request']:>11.4f} {row['requests_failed']:>6} "
            f"{recov if recov is not None else '—':>8} "
            f"{row['invariant_violations']:>10}"
        )
    return "\n".join(lines)
