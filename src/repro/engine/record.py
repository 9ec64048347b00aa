"""Run records and result views.

The canonical home of every configuration/result type the experiment
stack shares:

* :class:`ClusterConfig` — static cluster shape;
* :class:`MovementRecord` / :class:`ClusterResult` — the paper-figure
  measurements of one run;
* :class:`ChaosConfig` / :class:`FailureRecord` / :class:`ChaosResult`
  — the robustness measurements;
* :class:`RunRecord` + :class:`RunRecorder` — the engine-side half:
  one recorder subscribed to the probe bus accumulates the movement
  log, delegate history, and fault/detector/audit counters, and the
  result dataclasses above are built as *views* of that record instead
  of being scraped out of each driver after the fact.

This module must stay import-light: the live load generator imports
it for :func:`derive_seed`, so at top level it imports only
:class:`~repro.sim.Tally`/:class:`~repro.sim.TimeSeries`,
:mod:`repro.retry` and :mod:`.probes`, and no NumPy — anything from
``repro.cluster``/``repro.faults`` is deferred
(``tests/engine/test_layering.py`` pins the closure).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from ..retry import RetryPolicy
from ..sim import Tally, TimeSeries
from .probes import (
    DelegateElected,
    FaultInjected,
    FailureDeclared,
    InvariantAudit,
    MovesApplied,
    Observer,
    RecoveryDeclared,
    RequestDropped,
    RequestFailed,
    RunCompleted,
    RunStarted,
    ServerFailed,
    ServerRecovered,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..cluster.cache import CacheConfig
    from ..faults.schedule import FaultSchedule

__all__ = [
    "ClusterConfig",
    "MovementRecord",
    "ClusterResult",
    "ChaosConfig",
    "FailureRecord",
    "ChaosResult",
    "RunRecord",
    "RunRecorder",
    "derive_seed",
]


def derive_seed(seed: int, name: str) -> int:
    """Stable integer sub-seed (independent of PYTHONHASHSEED)."""
    return (int(seed) * 2654435761 + zlib.crc32(name.encode("utf-8"))) % (2**63)


def _new_cache_config() -> "CacheConfig":
    # Deferred: repro.cluster may still be mid-import when this module
    # loads; by the time a config is *constructed* it is fully loaded.
    from ..cluster.cache import CacheConfig

    return CacheConfig()


@dataclass(frozen=True)
class ClusterConfig:
    """Static configuration of one cluster experiment.

    Attributes
    ----------
    server_powers:
        Ordered map server id → processing power. The paper's cluster is
        ``{0: 1, 1: 3, 2: 5, 3: 7, 4: 9}``.
    tuning_interval:
        Seconds between tuning rounds (paper: 120 s, "to avoid
        over-tuning while still providing responsiveness").
    cache:
        Cost model for file-set movement.
    supply_knowledge:
        Whether to compute the prescient oracle each round. The driver
        always *offers* it; only prescient-class policies read it.
    """

    server_powers: Dict[object, float]
    tuning_interval: float = 120.0
    cache: "CacheConfig" = field(default_factory=_new_cache_config)
    supply_knowledge: bool = True

    def __post_init__(self) -> None:
        if not self.server_powers:
            raise ValueError("need at least one server")
        if any(p <= 0 for p in self.server_powers.values()):
            raise ValueError("server powers must be > 0")
        if self.tuning_interval <= 0:
            raise ValueError(f"tuning_interval must be > 0: {self.tuning_interval}")


@dataclass(frozen=True)
class MovementRecord:
    """Movement caused by one reconfiguration (tuning round or churn)."""

    round_index: int
    time: float
    kind: str
    moves: int
    moved_work_share: float


@dataclass
class ClusterResult:
    """Everything measured during one cluster run."""

    policy_name: str
    config: ClusterConfig
    duration: float
    #: Per-server time series of per-interval mean latency.
    server_latency: Dict[object, TimeSeries]
    #: Per-server whole-run latency tallies.
    server_tally: Dict[object, Tally]
    #: Per-server completed-request counts.
    server_requests: Dict[object, int]
    #: Per-server busy-time utilization over the run.
    server_utilization: Dict[object, float]
    #: One record per reconfiguration.
    movement: List[MovementRecord]
    #: Replicated shared-state size (entries) at end of run.
    shared_state_entries: int
    #: Requests submitted / completed / still queued at the end.
    submitted: int
    completed: int
    #: Latency of every completed request (aggregate figures).
    all_latencies: np.ndarray
    #: Kernel events processed during the run (determinism fingerprint:
    #: two runs of the same experiment must process the same count).
    events_processed: int = 0

    # ------------------------------------------------------------------ #
    @property
    def aggregate_mean_latency(self) -> float:
        """Mean latency over all completed requests (Figure 6a)."""
        return float(self.all_latencies.mean()) if self.all_latencies.size else float("nan")

    @property
    def aggregate_std_latency(self) -> float:
        """Standard deviation of request latency (Figure 6a error bars)."""
        return float(self.all_latencies.std(ddof=1)) if self.all_latencies.size > 1 else float("nan")

    @property
    def per_server_mean_latency(self) -> Dict[object, float]:
        """Mean latency of requests served by each server (Figure 6b)."""
        return {sid: t.mean for sid, t in self.server_tally.items()}

    @property
    def unfinished(self) -> int:
        """Requests that never completed (overloaded-server backlog)."""
        return self.submitted - self.completed

    @property
    def total_moves(self) -> int:
        """File-set moves across all reconfigurations (Figure 7 total)."""
        return sum(m.moves for m in self.movement)

    @property
    def total_moved_work_share(self) -> float:
        """Cumulative share of total workload moved (Figure 7, right axis)."""
        return sum(m.moved_work_share for m in self.movement)

    def request_share(self, server_id: object) -> float:
        """Fraction of all completed requests served by ``server_id``.

        Reproduces the paper's server-0 observation: "server 0 served
        only 248 requests (0.37%) out of the total 66,401" (§5.2.2).
        """
        if not self.completed:
            return float("nan")
        return self.server_requests.get(server_id, 0) / self.completed


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of the chaos harness (all defaults deterministic)."""

    seed: int = 1
    heartbeat_period: float = 2.0
    heartbeat_misses: int = 3
    heartbeat_recoveries: int = 2
    #: Cadence of the periodic (non-reconfiguration) invariant sweep.
    invariant_interval: float = 10.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    @property
    def detection_latency_bound(self) -> float:
        """Worst-case crash → declaration latency of the detector."""
        return self.heartbeat_period * (self.heartbeat_misses + 1)


@dataclass
class FailureRecord:
    """Timeline of one server crash (or partition suspicion)."""

    server_id: object
    kind: str  # "crash" or "suspect"
    t_fault: float
    #: Detector declaration instant (None if healed unnoticed).
    t_detect: Optional[float] = None
    #: Instant the underlying fault was lifted (network/link restored).
    t_heal: Optional[float] = None
    #: Instant the server was re-admitted to the layout (or directly
    #: recovered, for undetected blips).
    t_readmit: Optional[float] = None

    def detection_latency(self) -> Optional[float]:
        """Crash → declaration delay (None if never detected)."""
        if self.t_detect is None:
            return None
        return self.t_detect - self.t_fault

    def unavailable_until(self, horizon: float) -> float:
        """End of this record's unavailability window, capped at horizon."""
        return min(horizon, self.t_readmit if self.t_readmit is not None else horizon)


@dataclass
class ChaosResult:
    """Everything a chaos run measured, robustness metrics included."""

    base: ClusterResult
    seed: int
    schedule: "FaultSchedule"
    detection_latency_bound: float
    #: Faults applied / skipped by the injector.
    faults_injected: int
    faults_skipped: int
    applied: List[tuple]
    failures: List[FailureRecord]
    #: Client-side hardening ledger.
    requests_injected: int
    requests_completed: int
    requests_failed: int
    requests_in_flight: int
    retries: int
    redirects: int
    timeouts: int
    #: Detector activity.
    failure_declarations: int
    recovery_declarations: int
    #: Invariant sweeps performed / violations caught.
    invariant_checks: int
    invariant_violations: int
    #: Classification of the in-flight remainder at the horizon — a
    #: run *ends* with work in progress; none of it may be lost. Each
    #: in-flight request is exactly one of: queued on a live server
    #: (``queued``), between attempts awaiting backoff/re-location
    #: (``backoff``), or accepted but not yet driven (``dispatch``,
    #: scalar dispatch latch only).
    requests_in_flight_queued: int = 0
    requests_in_flight_backoff: int = 0
    requests_in_flight_dispatch: int = 0

    # ------------------------------------------------------------------ #
    @property
    def requests_lost(self) -> int:
        """In-flight requests the classification cannot account for.

        Zero by the conservation invariant; anything else is a harness
        bug the chaos tests fail on.
        """
        return self.requests_in_flight - (
            self.requests_in_flight_queued
            + self.requests_in_flight_backoff
            + self.requests_in_flight_dispatch
        )

    @property
    def detection_latencies(self) -> List[float]:
        """Observed crash → declaration delays."""
        return [
            lat
            for rec in self.failures
            if (lat := rec.detection_latency()) is not None
        ]

    @property
    def retries_per_request(self) -> float:
        """Mean retries per injected logical request."""
        return self.retries / self.requests_injected if self.requests_injected else 0.0

    @property
    def server_downtime(self) -> float:
        """Total server-seconds of unavailability (fault → readmission)."""
        horizon = self.base.duration
        return sum(
            max(0.0, rec.unavailable_until(horizon) - rec.t_fault)
            for rec in self.failures
        )

    @property
    def unavailability(self) -> float:
        """Downtime share of total server-time (server-seconds basis)."""
        horizon = self.base.duration
        n = len(self.base.server_tally)
        return self.server_downtime / (horizon * n) if horizon and n else 0.0


# ---------------------------------------------------------------------- #
# the engine-side record
# ---------------------------------------------------------------------- #
@dataclass
class RunRecord:
    """What one engine run accumulated on the probe bus.

    The single source the result views are built from: the movement
    log feeds :class:`ClusterResult`, the delegate history feeds the
    distributed compat surface, the counters feed :class:`ChaosResult`.
    """

    #: One record per reconfiguration, in application order.
    movement: List[MovementRecord] = field(default_factory=list)
    #: Every delegate that held office, in order (first = initial).
    delegate_history: List[object] = field(default_factory=list)
    #: Basic-path requests dropped (no live owner at arrival).
    requests_dropped: int = 0
    #: Hardened-path requests abandoned after every retry.
    requests_failed: int = 0
    #: Faults applied, as ``(time, kind, target)``.
    faults: List[Tuple[float, str, object]] = field(default_factory=list)
    #: Detector declarations.
    failure_declarations: int = 0
    recovery_declarations: int = 0
    #: Invariant sweeps observed on the bus.
    invariant_audits: int = 0
    #: Lifecycle markers (None until published).
    started: Optional[RunStarted] = None
    finished: Optional[RunCompleted] = None


class RunRecorder(Observer):
    """The bus subscriber that fills a :class:`RunRecord`.

    Attached first by the engine, so its view is complete before any
    user observer sees an event.
    """

    subscriptions = {
        RunStarted: "on_started",
        RunCompleted: "on_finished",
        MovesApplied: "on_moves",
        DelegateElected: "on_delegate",
        RequestDropped: "on_dropped",
        RequestFailed: "on_request_failed",
        FaultInjected: "on_fault",
        FailureDeclared: "on_failure_declared",
        RecoveryDeclared: "on_recovery_declared",
        InvariantAudit: "on_audit",
        ServerFailed: "on_server_failed",
        ServerRecovered: "on_server_recovered",
    }

    def __init__(self, record: Optional[RunRecord] = None) -> None:
        self.record = record if record is not None else RunRecord()
        #: Live membership changes seen on the bus (diagnostic).
        self.server_events: List[Tuple[float, str, object]] = []

    # ------------------------------------------------------------------ #
    def on_started(self, event: RunStarted) -> None:
        self.record.started = event

    def on_finished(self, event: RunCompleted) -> None:
        self.record.finished = event

    def on_moves(self, event: MovesApplied) -> None:
        self.record.movement.append(
            MovementRecord(
                round_index=event.round_index,
                time=event.time,
                kind=event.kind,
                moves=event.moves,
                moved_work_share=event.moved_work_share,
            )
        )

    def on_delegate(self, event: DelegateElected) -> None:
        self.record.delegate_history.append(event.delegate_id)

    def on_dropped(self, event: RequestDropped) -> None:
        self.record.requests_dropped += 1

    def on_request_failed(self, event: RequestFailed) -> None:
        self.record.requests_failed += 1

    def on_fault(self, event: FaultInjected) -> None:
        self.record.faults.append((event.time, event.kind, event.target))

    def on_failure_declared(self, event: FailureDeclared) -> None:
        self.record.failure_declarations += 1

    def on_recovery_declared(self, event: RecoveryDeclared) -> None:
        self.record.recovery_declarations += 1

    def on_audit(self, event: InvariantAudit) -> None:
        self.record.invariant_audits += 1

    def on_server_failed(self, event: ServerFailed) -> None:
        self.server_events.append((event.time, "fail", event.server_id))

    def on_server_recovered(self, event: ServerRecovered) -> None:
        self.server_events.append((event.time, "recover", event.server_id))
