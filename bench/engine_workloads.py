"""The four engine workloads: inputs from the seed, one timed pass each.

Each function takes the pass (:class:`bench.onepass.Pass`), generates its
inputs from ``run.seed`` inside the ``workload`` stage, runs them through
the engines' public entry points, and returns a record with

* ``attempted`` / ``completed`` / ``in_flight`` / ``failed`` — requests
  submitted, landed, still queued at the simulated horizon (classified,
  not failed), and lost + failed + invariant violations;
* ``checks`` — named correctness checks of this pass;
* ``exact`` — everything that is a pure function of the seed
  (fingerprints, counts, simulated statistics): ``run.py`` requires it
  to repeat exactly between passes;
* ``program`` — counters the program keeps itself (relocation ledger,
  kernel events, probe counts), the raw material of the per-layer block.

Sizes are the full sizes at ``--scale 1``; ``bench/README.md`` says why
each workload exists and which layers it stresses or bypasses.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

import numpy as np

from repro.cluster.cache import CacheConfig
from repro.engine import (
    ChaosConfig,
    ClusterConfig,
    ExperimentSpec,
    VectorChaosFaultLayer,
    VectorizedClientPath,
)
from repro.experiments.cache import result_fingerprint
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_comparison
from repro.experiments.scale import make_scale_policy, scale_powers
from repro.faults import FaultEvent, FaultKind, FaultSchedule, chaos_fingerprint
from repro.metrics.consistency import consistency_report
from repro.workloads.scale import ArrayWorkload, ScaleConfig, generate_scale
from repro.workloads.synthetic import generate_synthetic
from repro.workloads.trace import generate_trace_shaped

from .layers import new_record

#: Faults of each kind in one ``chaos_churn`` pass (the kinds the vector
#: fault layer compiles; delegate crashes and link faults have no
#: message-level control plane to hit there).
FAULTS_PER_PASS = ((FaultKind.CRASH, 24), (FaultKind.PARTITION, 12), (FaultKind.STRAGGLE, 12))
#: ``paper_scalar`` runs this share of the paper's 200 simulated minutes
#: (25 tuning rounds instead of 100), so that a pass stays short enough
#: to sit inside one speed of a shared processor.
PAPER_SHARE = 0.25
#: Simulated horizon and tuning cadence of the vector workloads — the
#: sweeps' own defaults, so rows stay comparable with ``BENCH_scale``.
DURATION_S = 1_200.0
TUNING_INTERVAL_S = 120.0


def _finite(value: float) -> float:
    return float(value) if math.isfinite(value) else 0.0


def _mean(latencies: np.ndarray) -> float:
    return _finite(latencies.mean()) if latencies.size else 0.0


def _fault_schedule(run, server_ids: List[object], chaos: ChaosConfig) -> FaultSchedule:
    """A fixed number of faults of each kind at seeded times and victims.

    The sweeps draw the fault *count* from a Poisson law, which makes the
    cost of a pass depend on the seed (28 faults on one, 35 on the next). Here only when
    and whom a fault hits varies with the seed; how many there are does
    not, so passes of different seeds do the same amount of churn.
    Windows and outage lengths are those of ``random_schedule``: faults
    land in the first 70 % of the run, and an outage outlives the
    detection bound, or a crash would heal before it is declared.
    """
    rng = np.random.default_rng([run.seed, 0xFA17])
    min_outage = max(30.0, 3.0 * chaos.detection_latency_bound)
    events = []
    for kind, count in FAULTS_PER_PASS:
        for _ in range(run.sized(count, 2)):
            victim = server_ids[int(rng.integers(0, len(server_ids)))]
            events.append(
                FaultEvent(
                    time=float(rng.uniform(0.05 * DURATION_S, 0.7 * DURATION_S)),
                    kind=kind,
                    target=(victim,) if kind == FaultKind.PARTITION else victim,
                    duration=float(rng.uniform(min_outage, 90.0)),
                    params=(0.25,) if kind == FaultKind.STRAGGLE else (),
                )
            )
    return FaultSchedule(events=tuple(events))


def _vector_cell(
    run,
    record: Dict[str, Any],
    workload: ArrayWorkload,
    n_servers: int,
    policy_name: str,
    faulty: bool = False,
) -> None:
    """Build, drive and audit one (workload, policy) cell on the vector path."""
    powers = scale_powers(n_servers)
    with run.stage("placement"):
        policy = make_scale_policy(policy_name, list(powers))
        layer = None
        if faulty:
            chaos = ChaosConfig(seed=run.seed)
            layer = VectorChaosFaultLayer(
                schedule=_fault_schedule(run, list(powers), chaos), chaos=chaos
            )
        engine = ExperimentSpec(
            workload=workload.fork(),
            policy=policy,
            config=ClusterConfig(
                server_powers=powers,
                tuning_interval=TUNING_INTERVAL_S,
                cache=CacheConfig(flush_work_scale=0.0, cold_factor=1.0, warmup_time=0.0),
                supply_knowledge=False,
            ),
            client_path=VectorizedClientPath(),
            faults=layer,
        ).build()
    with run.stage("drive"):
        result = engine.run_chaos()
    with run.stage("report"):
        base = getattr(result, "base", result)
        latencies = base.all_latencies
        cell = {
            "submitted": int(base.submitted),
            "completed": int(base.completed),
            "mean_latency_s": _mean(latencies),
            "latency_cov": _finite(consistency_report(base, min_share=0.0).cov),
        }
        checks = record["checks"]
        if layer is None:
            cell["fingerprint"] = result_fingerprint(base)
            in_flight = cell["submitted"] - cell["completed"]
            lost = 0
        else:
            cell["fingerprint"] = chaos_fingerprint(result)
            in_flight = int(result.requests_in_flight)
            lost = int(
                result.requests_lost + result.requests_failed + result.invariant_violations
            )
            checks[f"{policy_name}.no_request_lost"] = result.requests_lost == 0
            checks[f"{policy_name}.no_invariant_violation"] = (
                result.invariant_violations == 0 and result.invariant_checks > 0
            )
            slots = {sid: i for i, sid in enumerate(powers)}
            checks[f"{policy_name}.no_evicted_slot_assigned"] = bool(
                layer.admitted[policy.assignment_vector(slots)].all()
            )
            record["program"]["orphans_redriven"] += int(layer.retries)
        # Every submitted request either landed (one latency sample
        # each) or is classified as still queued at the horizon.
        checks[f"{policy_name}.conserved"] = (
            cell["submitted"] == cell["completed"] + in_flight
            and cell["completed"] == int(latencies.size)
        )
        record["attempted"] += cell["submitted"]
        record["completed"] += cell["completed"]
        record["in_flight"] += in_flight
        record["failed"] += lost
        record["exact"][policy_name] = cell
        program = record["program"]
        program["events_processed"] += int(base.events_processed)
        program["reshuffle_s"] += float(getattr(policy, "reshuffle_seconds", 0.0))
        program["relocated"] += int(getattr(policy, "relocated_total", 0))
        program["relocation_opportunity"] += int(getattr(policy, "relocation_opportunity", 0))
        program["total_sheds"] += int(getattr(policy, "total_sheds", 0))


def _vector_workload(
    run,
    n_servers: int,
    n_filesets: int,
    n_requests: int,
    policies: List[str],
    faulty: bool = False,
) -> Dict[str, Any]:
    record = new_record()
    with run.stage("workload"):
        workload = generate_scale(
            ScaleConfig(
                n_filesets=n_filesets,
                target_requests=n_requests,
                duration=DURATION_S,
                total_capacity=sum(scale_powers(n_servers).values()),
            ),
            seed=run.seed,
        )
    for policy_name in policies:
        _vector_cell(run, record, workload, n_servers, policy_name, faulty)
    anu = record["exact"]["anu"]
    record["program"]["anu_mean_latency_s"] = anu["mean_latency_s"]
    record["program"]["anu_latency_cov"] = anu["latency_cov"]
    return record


def scale_place(run) -> Dict[str, Any]:
    """Many names, few requests per name: hashing and sorting dominate."""
    n_filesets = run.sized(50_000, 200)
    return _vector_workload(
        run,
        n_servers=run.sized(100, 5),
        n_filesets=n_filesets,
        n_requests=run.sized(500_000, 10 * n_filesets),
        policies=["anu"],
    )


def scale_drive(run) -> Dict[str, Any]:
    """Few names, many requests: generation, drain and landing dominate."""
    n_filesets = run.sized(3_000, 100)
    return _vector_workload(
        run,
        n_servers=run.sized(100, 5),
        n_filesets=n_filesets,
        n_requests=run.sized(2_000_000, 100 * n_filesets),
        policies=["anu", "chbl", "jsq2"],
    )


def chaos_churn(run) -> Dict[str, Any]:
    """The vector layers used the write way: churn, deltas, re-drive."""
    n_filesets = run.sized(20_000, 200)
    return _vector_workload(
        run,
        n_servers=run.sized(200, 20),
        n_filesets=n_filesets,
        n_requests=run.sized(400_000, 20 * n_filesets),
        policies=["anu", "chbl"],
        faulty=True,
    )


def paper_scalar(run) -> Dict[str, Any]:
    """The paper's own evaluation on the scalar engine, four systems."""
    record = new_record()
    config = ExperimentConfig(seed=run.seed, scale=min(1.0, PAPER_SHARE * run.scale))
    cells = (
        ("synthetic", generate_synthetic, config.synthetic_config()),
        ("trace", generate_trace_shaped, config.trace_config()),
    )
    means, covs = [], []
    for label, generate, workload_config in cells:
        with run.stage("workload"):
            workload = generate(workload_config, seed=run.seed)
        # run_comparison builds and runs each system in one call, so the
        # untraced ledger books both under ``drive``; the traced pass
        # splits engine.build_s from engine.run_s.
        with run.stage("drive"):
            results = run_comparison(workload, config)
        with run.stage("report"):
            for system, result in results.items():
                latencies = result.all_latencies
                cell = {
                    "submitted": int(result.submitted),
                    "completed": int(result.completed),
                    "mean_latency_s": _mean(latencies),
                    "fingerprint": result_fingerprint(result),
                }
                if system == "anu":
                    cell["latency_cov"] = _finite(consistency_report(result).cov)
                    means.append(cell["mean_latency_s"])
                    covs.append(cell["latency_cov"])
                record["exact"][f"{label}.{system}"] = cell
                record["attempted"] += cell["submitted"]
                record["completed"] += cell["completed"]
                record["in_flight"] += cell["submitted"] - cell["completed"]
                record["checks"][f"{label}.{system}.conserved"] = (
                    0 <= cell["completed"] <= cell["submitted"]
                    and cell["completed"] == int(latencies.size)
                )
                record["program"]["events_processed"] += int(result.events_processed)
    if run.scale >= 1.0:
        # At full size the oracle systems keep up with the synthetic load
        # and ANU beats static hashing; shrunken smoke sizes end
        # mid-convergence, with work still queued.
        exact = record["exact"]
        record["checks"]["synthetic.oracle_systems_complete_everything"] = all(
            exact[f"synthetic.{s}"]["completed"] == exact[f"synthetic.{s}"]["submitted"]
            for s in ("prescient", "virtual")
        )
        record["checks"]["synthetic.anu_beats_simple"] = (
            exact["synthetic.anu"]["mean_latency_s"]
            < exact["synthetic.simple"]["mean_latency_s"]
        )
    record["program"]["anu_mean_latency_s"] = float(np.mean(means))
    record["program"]["anu_latency_cov"] = float(np.mean(covs))
    return record
