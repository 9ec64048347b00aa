"""The controller-ablation sweep: which tuning rule holds up under stress?

The paper's multiplicative averaging rule is one point in a family —
``repro.control`` adds PI, pole-placement, brownout, and a demand-
forecasting wrapper behind the same :class:`~repro.control.Controller`
seam. This sweep measures all of them where the choice actually
matters: non-stationary and fault-injected regimes, at both the
paper's scale (5 heterogeneous servers, scalar engine) and planet
scale (1000 servers on the vectorized cohort path).

Scenarios (same arrival/work calibration as the headline benches):

* ``hotspot`` — file-set popularity re-draws mid-run: the coldest sets
  become the hottest (scalar: :func:`generate_shifting`; vector: the
  Pareto weight vector is permuted at half-time), so converged layouts
  are suddenly wrong.
* ``churn``  — servers crash mid-run and later recover (scalar:
  engine-scheduled failure; vector: a scripted
  :class:`~repro.engine.VectorChaosFaultLayer` timeline), forcing
  re-convergence over a changed membership.
* ``flash``  — a flash crowd: offered load surges ~1.5× inside a 15%
  window (cluster utilization 0.6 → 0.9), probing overreaction — a
  twitchy controller sheds half its regions chasing a transient.

Per (controller, scenario, mode) the bench records the paper's
consistency metrics (latency CoV, Jain index), **convergence round**
(first tuning round after which every later round re-assigns less than
5% of the occupied interval mass), and **oscillation** (mean per-round
re-assigned mass over the trailing half of the run) — the region-
length trace is captured from :class:`~repro.engine.MovesApplied`
probes, identically on both engines.

The cells run through :func:`repro.experiments.sweep.run_sweep`; one
workload per (point, scenario) is shared across controllers.

``python -m repro.experiments control`` writes ``BENCH_control.json``
(schema-gated by ``tools/check_bench_schema.py``, including the
semantic gate that at least one feedback controller beats the
multiplicative baseline on convergence or oscillation somewhere);
``--smoke`` runs a seconds-sized subset for CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cluster.fileset import FileSetCatalog
from ..control import make_controller
from ..core.hashing import HashFamily
from ..core.interval import HALF
from ..engine import (
    ChaosConfig,
    ExperimentSpec,
    MovesApplied,
    ProbeBus,
    VectorChaosFaultLayer,
    VectorizedClientPath,
)
from ..faults import FaultEvent, FaultKind, FaultSchedule
from ..policies import ANURandomization, VectorANU
from ..sim.rng import StreamRegistry
from ..workloads import ShiftConfig, SyntheticConfig, generate_shifting, generate_synthetic
from ..workloads.calibrate import request_work_for_utilization
from ..workloads.distributions import lognormal_work, weighted_indices
from ..workloads.synthetic import Workload
from .sweep import (
    SweepSpec,
    format_point_label,
    latency_columns,
    point_columns,
    policy_columns,
    scale_powers,
    sweep_cluster_config,
)

__all__ = [
    "SWEEP",
    "CONTROL_CONTROLLERS",
    "CONTROL_SCENARIOS",
    "DEFAULT_POINTS",
    "SMOKE_POINTS",
    "ControlPoint",
    "trace_metrics",
    "run_control_point",
    "render_control",
]

#: The controller family under ablation (registry names).
CONTROL_CONTROLLERS: Tuple[str, ...] = (
    "multiplicative",
    "pi",
    "pole",
    "brownout",
    "forecast",
)

CONTROL_SCENARIOS: Tuple[str, ...] = ("hotspot", "churn", "flash")

#: The reference every feedback controller is compared against.
BASELINE_CONTROLLER = "multiplicative"

#: Convergence tolerance: a round "has converged" when every later
#: round moves no region by more than this relative amount.
CONVERGENCE_TOL = 0.05

#: Flash-crowd shape: surge window as a fraction of the run, and the
#: extra offered load inside it as a fraction of the base rate.
FLASH_WINDOW = (0.40, 0.55)
FLASH_BOOST = 0.5


@dataclass(frozen=True)
class ControlPoint:
    """One engine mode / cluster size / workload size in the sweep."""

    #: ``"paper"`` (scalar engine, request objects) or ``"vector"``
    #: (cohort-drained array path).
    mode: str
    n_servers: int
    n_filesets: int
    n_requests: int
    duration: float = 1_200.0
    tuning_interval: float = 120.0


#: The paper's cluster on the scalar engine, and the planet-scale
#: point the acceptance bar measures (≥1000 servers) on the vectorized
#: path.
DEFAULT_POINTS: Tuple[ControlPoint, ...] = (
    ControlPoint(
        mode="paper", n_servers=5, n_filesets=50, n_requests=66_401,
        duration=12_000.0,
    ),
    ControlPoint(
        mode="vector", n_servers=1_000, n_filesets=100_000,
        n_requests=2_000_000,
    ),
)

#: CI-sized: seconds, not minutes, same code paths end to end.
SMOKE_POINTS: Tuple[ControlPoint, ...] = (
    ControlPoint(
        mode="paper", n_servers=5, n_filesets=50, n_requests=4_000,
        duration=1_200.0,
    ),
    ControlPoint(
        mode="vector", n_servers=20, n_filesets=500, n_requests=30_000,
        duration=600.0, tuning_interval=60.0,
    ),
)


# --------------------------------------------------------------------- #
# workload construction
# --------------------------------------------------------------------- #
def _merge_workloads(name: str, parts: Sequence[Workload], duration: float) -> Workload:
    """Union of request schedules with summed per-file-set totals."""
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for part in parts:
        for fs in part.catalog:
            totals[fs.name] = totals.get(fs.name, 0.0) + fs.total_work
            counts[fs.name] = counts.get(fs.name, 0) + fs.n_requests
    names = sorted(totals)
    index = {n: i for i, n in enumerate(names)}
    return Workload(
        name=name,
        catalog=FileSetCatalog(
            names, [totals[n] for n in names], [counts[n] for n in names]
        ),
        arrivals=np.concatenate([part.arrivals for part in parts]),
        works=np.concatenate([part.works for part in parts]),
        fs_idx=np.concatenate(
            [
                np.array([index[n] for n in part.catalog.names])[part.fs_idx]
                for part in parts
            ]
        ),
        duration=duration,
    )


def _scalar_workload(point: ControlPoint, scenario: str, seed: int) -> Workload:
    """The scenario's request schedule for the scalar engine."""
    powers = scale_powers(point.n_servers)
    base_cfg = SyntheticConfig(
        n_filesets=point.n_filesets,
        duration=point.duration,
        target_requests=point.n_requests,
        total_capacity=sum(powers.values()),
    )
    if scenario == "hotspot":
        workload, _hot = generate_shifting(ShiftConfig(base=base_cfg), seed=seed)
        return workload
    if scenario == "flash":
        base = generate_synthetic(base_cfg, seed=seed)
        w0, w1 = FLASH_WINDOW
        window = (w1 - w0) * point.duration
        n_surge = max(point.n_filesets, int(point.n_requests * (w1 - w0) * FLASH_BOOST))
        surge_cfg = SyntheticConfig(
            n_filesets=point.n_filesets,
            duration=window,
            target_requests=n_surge,
            total_capacity=base_cfg.total_capacity,
            # Base runs at 0.6; the surge adds (w1-w0)·boost/(w1-w0) =
            # 0.3 inside the window, peaking utilization at ~0.9.
            utilization=base_cfg.utilization * FLASH_BOOST,
        )
        surge_raw = generate_synthetic(surge_cfg, seed=seed + 7919)
        t0 = w0 * point.duration
        surge = Workload(
            name="surge",
            catalog=surge_raw.catalog,
            arrivals=surge_raw.arrivals + t0,
            works=surge_raw.works,
            fs_idx=surge_raw.fs_idx,
            duration=point.duration,
        )
        return _merge_workloads(
            f"flash(seed={seed})", (base, surge), point.duration
        )
    # churn: the stationary paper workload; the stress is membership.
    return generate_synthetic(base_cfg, seed=seed)


def _vector_workload(point: ControlPoint, scenario: str, seed: int) -> Workload:
    """The scenario's columnar schedule for the vectorized path."""
    registry = StreamRegistry(seed)
    m, n, T = point.n_filesets, point.n_requests, point.duration
    capacity = sum(scale_powers(point.n_servers).values())
    weights = 1.0 + registry.stream(f"control/{scenario}/weights").pareto(1.2, m)
    mean_work = request_work_for_utilization(n, T, capacity, 0.6)
    if scenario == "hotspot":
        # Phase 2 permutes the popularity vector: the mega-hot sets of
        # phase 1 land on different servers' regions, so per-server
        # demand shifts hard at half-time.
        half = n // 2
        perm = registry.stream("control/hotspot/perm").permutation(m)
        fs1 = weighted_indices(registry.stream("control/hotspot/fs1"), weights, half)
        fs2 = weighted_indices(
            registry.stream("control/hotspot/fs2"), weights[perm], n - half
        )
        t1 = np.sort(registry.stream("control/hotspot/t1").uniform(0.0, T / 2, half))
        t2 = np.sort(
            registry.stream("control/hotspot/t2").uniform(T / 2, T, n - half)
        )
        arrivals = np.concatenate([t1, t2])
        fs_idx = np.concatenate([fs1, fs2])
    elif scenario == "flash":
        w0, w1 = FLASH_WINDOW
        n_surge = int(n * (w1 - w0) * FLASH_BOOST)
        base_t = registry.stream("control/flash/base_t").uniform(0.0, T, n)
        surge_t = registry.stream("control/flash/surge_t").uniform(
            w0 * T, w1 * T, n_surge
        )
        arrivals = np.concatenate([base_t, surge_t])
        fs_idx = weighted_indices(
            registry.stream("control/flash/fs"), weights, n + n_surge
        )
        order = np.argsort(arrivals, kind="stable")
        arrivals = arrivals[order]
        fs_idx = fs_idx[order]
    else:  # churn: stationary arrivals; the fault layer is the stress.
        arrivals = np.sort(registry.stream("control/churn/t").uniform(0.0, T, n))
        fs_idx = weighted_indices(registry.stream("control/churn/fs"), weights, n)
    works = lognormal_work(
        registry.stream(f"control/{scenario}/work"), len(arrivals), mean_work, 0.25
    )
    catalog = FileSetCatalog(
        [f"/fs/{i:07d}" for i in range(m)],
        np.bincount(fs_idx, weights=works, minlength=m),
        np.bincount(fs_idx, minlength=m),
    )
    return Workload(
        name=f"control/{scenario}(seed={seed})",
        catalog=catalog,
        arrivals=arrivals,
        works=works,
        fs_idx=fs_idx,
        duration=T,
    )


def _churn_script(point: ControlPoint, chaos: ChaosConfig) -> FaultSchedule:
    """Deterministic crash-and-heal timeline for the vector churn runs.

    5% of the cluster (at least one server) crashes shortly after the
    controllers have converged; every outage outlives the detection
    bound so the compiled detector declares it, and heals before the
    run ends so re-admission is measured too.
    """
    k = max(1, point.n_servers // 20)
    start = 0.30 * point.duration
    outage = max(0.25 * point.duration, 3.0 * chaos.detection_latency_bound + 30.0)
    events = []
    for i in range(k):
        victim = ((i * point.n_servers) // k + point.n_servers // (2 * k)) % point.n_servers
        events.append(
            FaultEvent(start + 7.0 * i, FaultKind.CRASH, target=victim, duration=outage)
        )
    return FaultSchedule(events=tuple(events))


# --------------------------------------------------------------------- #
# trace metrics
# --------------------------------------------------------------------- #
def trace_metrics(
    trace: Sequence[Dict[object, float]], tol: float = CONVERGENCE_TOL
) -> Dict[str, object]:
    """Convergence and oscillation from a region-length trace.

    ``trace[0]`` is the initial layout, ``trace[r]`` the layout after
    tuning round ``r``. The per-round statistic is the total region
    mass moved — ``Σ|cur−prev| / HALF`` over the servers present in
    both snapshots — i.e. the fraction of the occupied half-interval
    the round re-assigned. It is bounded (≤ 2) and proportional to the
    work the round displaces, so it reads directly as reconfiguration
    cost; a churn event shows up as the re-convergence transient it
    causes, not as an artificial discontinuity.
    """
    changes: List[float] = []
    for prev, cur in zip(trace, trace[1:]):
        common = set(prev) & set(cur)
        moved = sum(abs(cur[sid] - prev[sid]) for sid in common)
        changes.append(moved / HALF)
    convergence_round: Optional[int] = None
    for r in range(len(changes)):
        if all(c < tol for c in changes[r:]):
            convergence_round = r + 1
            break
    tail = changes[len(changes) // 2:]
    oscillation = float(sum(tail) / len(tail)) if tail else 0.0
    return {
        "rounds": len(changes),
        "convergence_round": convergence_round,
        "oscillation": round(oscillation, 6),
    }


# --------------------------------------------------------------------- #
# the runs
# --------------------------------------------------------------------- #
def _workload(point: ControlPoint, scenario: str, seed: int) -> Workload:
    """The scenario's schedule in the point's engine mode."""
    generate = _scalar_workload if point.mode == "paper" else _vector_workload
    return generate(point, scenario, seed)


def _prepare(
    point: ControlPoint, seed: int, axes: Mapping[str, Sequence[str]]
) -> Dict[str, Workload]:
    """The point's shared inputs: one workload per scenario."""
    return {
        scenario: _workload(point, scenario, seed) for scenario in axes["scenarios"]
    }


def run_control_point(
    point: ControlPoint,
    scenario: str,
    controller_name: str,
    seed: int = 1,
    shared: Optional[Mapping[str, Workload]] = None,
) -> Dict[str, object]:
    """One (point, scenario, controller) run; returns a bench row."""
    if point.mode not in ("paper", "vector"):
        raise ValueError(f"unknown mode {point.mode!r}")
    if scenario not in CONTROL_SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; know {CONTROL_SCENARIOS}")
    chaos = ChaosConfig(seed=seed)
    workload = shared[scenario] if shared else _workload(point, scenario, seed)
    config = sweep_cluster_config(point)
    family = HashFamily(seed=0)
    controller = make_controller(controller_name)
    server_ids = list(config.server_powers)
    if point.mode == "paper":
        policy = ANURandomization(server_ids, hash_family=family, controller=controller)
    else:
        policy = VectorANU(
            server_ids, hash_family=family, emit_moves=False, controller=controller
        )
    trace: List[Dict[object, float]] = []

    def snap(event: MovesApplied) -> None:
        if event.kind == "tune":
            trace.append(dict(policy.region_lengths))

    bus = ProbeBus()
    bus.subscribe(MovesApplied, snap)
    vector = point.mode == "vector"
    run_chaos = vector and scenario == "churn"
    engine = ExperimentSpec(
        workload,
        policy,
        config,
        client_path=VectorizedClientPath() if vector else None,
        faults=(
            VectorChaosFaultLayer(schedule=_churn_script(point, chaos), chaos=chaos)
            if run_chaos
            else None
        ),
        bus=bus,
    ).build()
    if not vector and scenario == "churn":
        victim = max(server_ids[:-1]) if len(server_ids) > 1 else server_ids[0]
        engine.schedule_failure(0.35 * point.duration, victim)
        engine.schedule_recovery(0.65 * point.duration, victim)
    trace.insert(0, dict(policy.region_lengths))
    result = engine.run_chaos() if run_chaos else engine.run()
    base = result.base if run_chaos else result
    metrics = trace_metrics(trace)
    conv = metrics["convergence_round"]
    return {
        "controller": controller_name,
        "scenario": scenario,
        "mode": point.mode,
        **point_columns(point),
        "n_requests": int(base.submitted),
        "completed": int(base.completed),
        "rounds": metrics["rounds"],
        "convergence_round": conv,
        "convergence_time_s": (
            conv * point.tuning_interval if conv is not None else None
        ),
        "oscillation": metrics["oscillation"],
        **latency_columns(base),
        # Paper-mode rows record a null relocation ledger: the scalar
        # adapter is uninstrumented, not relocation-free.
        **policy_columns(policy),
    }


def _feedback_wins(rows: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Where a feedback controller beats the multiplicative baseline.

    A win is strictly faster convergence (fewer rounds, or converging
    at all where the baseline never does) or strictly lower
    oscillation, on the same (scenario, mode) cell.
    """
    wins: List[Dict[str, object]] = []
    cells: Dict[Tuple[str, str], Dict[str, Dict[str, object]]] = {}
    for row in rows:
        cells.setdefault((row["scenario"], row["mode"]), {})[row["controller"]] = row
    for (scenario, mode), by_ctrl in sorted(cells.items()):
        baseline = by_ctrl.get(BASELINE_CONTROLLER)
        if baseline is None:
            continue
        for name, row in sorted(by_ctrl.items()):
            if name == BASELINE_CONTROLLER:
                continue
            conv, base_conv = row["convergence_round"], baseline["convergence_round"]
            beaten = []
            if conv is not None and (base_conv is None or conv < base_conv):
                beaten.append("convergence_round")
            if row["oscillation"] < baseline["oscillation"]:
                beaten.append("oscillation")
            for metric in beaten:
                wins.append(
                    {
                        "scenario": scenario,
                        "mode": mode,
                        "controller": name,
                        "metric": metric,
                        "value": row[metric],
                        "baseline_value": baseline[metric],
                    }
                )
    return wins


def _header(seed: int, rows: List[Dict[str, object]]) -> Dict[str, object]:
    return {
        "baseline_controller": BASELINE_CONTROLLER,
        "feedback_wins": _feedback_wins(rows),
    }


def render_control(payload: Dict[str, object]) -> str:
    """ASCII table of a sweep payload (the CLI's printed output)."""
    lines = [
        f"control sweep: seed={payload['seed']} "
        f"baseline={payload['baseline_controller']}",
        f"{'point':>22} {'scenario':>8} {'ctrl':>14} {'conv':>5} "
        f"{'osc':>8} {'cov':>7} {'jain':>6} {'p99':>8} {'sheds':>8}",
    ]
    for row in payload["rows"]:
        point = f"{row['mode']}:{format_point_label(row['n_servers'], row['n_filesets'])}"
        conv = row["convergence_round"]
        lines.append(
            f"{point:>22} {row['scenario']:>8} {row['controller']:>14} "
            f"{conv if conv is not None else '—':>5} "
            f"{row['oscillation']:>8.4f} {row['latency_cov']:>7.4f} "
            f"{row['jain_index']:>6.4f} {row['p99_latency']:>8.4f} "
            f"{row['total_sheds']:>8}"
        )
    wins = payload["feedback_wins"]
    lines.append(
        f"feedback wins over {payload['baseline_controller']}: {len(wins)}"
    )
    for win in wins:
        base = win["baseline_value"]
        lines.append(
            f"  {win['mode']}/{win['scenario']}: {win['controller']} "
            f"{win['metric']} {win['value']} vs {base if base is not None else '—'}"
        )
    return "\n".join(lines)


SWEEP = SweepSpec(
    name="control",
    schema_version=4,
    description="Controller ablation: multiplicative / PI / pole-placement "
    "/ brownout / forecast under hotspot, churn, and flash-crowd stress, "
    "at paper scale and 1000-server vector scale.",
    points=DEFAULT_POINTS,
    smoke_points=SMOKE_POINTS,
    axes={"scenarios": CONTROL_SCENARIOS, "controllers": CONTROL_CONTROLLERS},
    prepare=_prepare,
    cell=run_control_point,
    render=render_control,
    header=_header,
)
