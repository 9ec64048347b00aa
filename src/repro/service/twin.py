"""The digital-twin parity harness: replay a live run in the simulator.

The bridge that lets the simulator validate against real measurements.
A live run leaves a :class:`~repro.service.recording.ServiceRecording`;
the twin replays it at two levels of strictness:

**Decision replay (exact).** The control timeline holds the *exact*
:class:`~repro.core.tuning.LatencyReport` batches the live controller
consumed. Feeding them to a freshly built manager — same membership,
same hash family, same controller family — must reproduce the live
region trajectory to float precision. This pins the fail-over contract
end-to-end on live data: a newly elected delegate reconstructing from
replicated state makes *identical* decisions. Any drift here is a bug,
not noise.

**Simulation replay (tolerant).** The request timeline (file set,
arrival, work) is rebuilt into a :class:`~repro.workloads.Workload`
and run through the full discrete-event engine with the same powers,
epoch length, controller, and hash seed — but *simulated* latencies.
Wall clocks are noisy (scheduler jitter, socket overhead), so the
simulated trajectory only *tracks* the live one: the per-epoch L1
distance between region-length vectors must stay below a stated
tolerance. Region lengths sum to 1/2, so an L1 distance of 1.0 means
"every region is somewhere else entirely"; the default tolerance of
0.35 says the twin keeps the shape of the live layout while individual
boundaries wobble with the noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cluster.cache import CacheConfig
from ..cluster.fileset import FileSetCatalog
from ..control import as_controller
from ..core.anu import ANUManager
from ..core.hashing import HashFamily
from ..engine.builder import ExperimentSpec
from ..engine.record import ClusterConfig
from ..policies.anu import ANURandomization
from ..workloads.synthetic import Workload
from .recording import EpochRecord, MembershipRecord, ServiceRecording

__all__ = [
    "DECISION_TOLERANCE",
    "SIM_TOLERANCE",
    "TwinReport",
    "replay_decisions",
    "build_twin_workload",
    "replay_simulation",
    "run_twin",
]

#: Exact-replay bound: pure float round-off, nothing more.
DECISION_TOLERANCE = 1e-9
#: Simulation-replay bound on per-epoch L1 trajectory distance. See
#: the module docstring for what the scale means; DESIGN.md §10
#: documents the contract.
SIM_TOLERANCE = 0.35


@dataclass
class TwinReport:
    """Both parity verdicts for one recorded run."""

    #: Exact decision replay: max L1 deviation per epoch (float dust).
    decision_max_l1: float
    decision_epochs: int
    decision_ok: bool
    #: Tolerant simulation replay: per-epoch L1 distances live vs sim.
    sim_distances: List[float] = field(default_factory=list)
    sim_max_l1: float = 0.0
    sim_epochs: int = 0
    sim_ok: bool = True
    decision_tolerance: float = DECISION_TOLERANCE
    sim_tolerance: float = SIM_TOLERANCE

    @property
    def ok(self) -> bool:
        """Both replays within their documented tolerances."""
        return self.decision_ok and self.sim_ok


def _l1(a: Dict[str, float], b: Dict[str, float]) -> float:
    keys = set(a) | set(b)
    return sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


# ---------------------------------------------------------------------- #
# level 1: exact decision replay
# ---------------------------------------------------------------------- #
def replay_decisions(
    recording: ServiceRecording,
    controller: Optional[object] = None,
) -> Tuple[float, int]:
    """Feed the recorded report batches to a fresh manager; compare.

    Returns ``(max_l1_deviation, epochs_replayed)``. The replayed
    manager is what a newly elected delegate would reconstruct: same
    initial membership, same hash family, a fresh fork of the same
    controller family. Membership events are reapplied in recorded
    order, so joins and failures interleave exactly as they did live.
    """
    manager = ANUManager(
        server_ids=list(recording.initial_servers),
        hash_family=HashFamily(seed=recording.hash_seed),
        controller=as_controller(controller).fork(),
    )
    max_l1 = 0.0
    epochs = 0
    for event in recording.events:
        if isinstance(event, EpochRecord):
            rec = manager.tune(list(event.reports))
            replayed = {str(k): v for k, v in rec.lengths_after.items()}
            max_l1 = max(max_l1, _l1(replayed, event.lengths_after))
            epochs += 1
        elif isinstance(event, MembershipRecord):
            if event.kind == "join":
                manager.add_server(event.server_id)
            elif event.kind == "leave":
                manager.remove_server(event.server_id)
            else:  # "kill"
                manager.fail_server(event.server_id)
    return max_l1, epochs


# ---------------------------------------------------------------------- #
# level 2: tolerant simulation replay
# ---------------------------------------------------------------------- #
def build_twin_workload(recording: ServiceRecording) -> Workload:
    """The recorded request timeline as a simulator workload.

    Work is pre-scaled by the recording's ``time_scale`` so the
    simulated service time (``work / power``) equals the live echo
    server's sleep (``work * time_scale / power``).
    """
    traces = sorted(recording.requests, key=lambda t: t.arrival)
    if not traces:
        raise ValueError("recording has no request timeline to replay")
    works = [trace.work * recording.time_scale for trace in traces]
    per_fs_work: Dict[str, float] = {}
    per_fs_count: Dict[str, int] = {}
    for trace, work in zip(traces, works):
        per_fs_work[trace.fileset] = per_fs_work.get(trace.fileset, 0.0) + work
        per_fs_count[trace.fileset] = per_fs_count.get(trace.fileset, 0) + 1
    names = list(per_fs_work)
    index = {name: i for i, name in enumerate(names)}
    catalog = FileSetCatalog(
        names, list(per_fs_work.values()), list(per_fs_count.values())
    )
    n_epochs = len(recording.epochs)
    duration = max(
        (n_epochs or 1) * recording.epoch_seconds,
        max(t.arrival for t in traces) + recording.epoch_seconds,
    )
    return Workload(
        name="twin-replay",
        catalog=catalog,
        arrivals=[trace.arrival for trace in traces],
        works=works,
        fs_idx=[index[trace.fileset] for trace in traces],
        duration=duration,
    )


def replay_simulation(
    recording: ServiceRecording,
    controller: Optional[object] = None,
) -> Tuple[List[float], int]:
    """Run the recorded timeline through the discrete-event engine.

    Returns the per-epoch L1 distances between the live and simulated
    region trajectories (and the number of epochs compared). The twin
    engine mirrors the live stack piece for piece — same powers, same
    epoch length, same hash seed, a fork of the same controller — with
    a zero-cost cache model, because the echo servers have no cache to
    flush or warm.
    """
    workload = build_twin_workload(recording)
    policy = ANURandomization(
        server_ids=list(recording.initial_servers),
        hash_family=HashFamily(seed=recording.hash_seed),
    )
    trajectory: List[Dict[str, float]] = []
    policy.manager.add_reconfiguration_hook(
        lambda rec: trajectory.append(
            {str(k): v for k, v in rec.lengths_after.items()}
        )
        if rec.kind == "tune"
        else None
    )
    config = ClusterConfig(
        server_powers={
            sid: recording.server_powers[sid] for sid in recording.initial_servers
        },
        tuning_interval=recording.epoch_seconds,
        cache=CacheConfig(flush_work_scale=0.0, cold_factor=1.0, warmup_time=0.0),
        supply_knowledge=False,
    )
    spec = ExperimentSpec(
        workload=workload,
        policy=policy,
        config=config,
        controller=as_controller(controller),
    )
    engine = spec.build()
    engine.run()
    live = recording.live_trajectory()
    n = min(len(live), len(trajectory))
    return [_l1(live[i], trajectory[i]) for i in range(n)], n


# ---------------------------------------------------------------------- #
# the combined harness
# ---------------------------------------------------------------------- #
def run_twin(
    recording: ServiceRecording,
    controller: Optional[object] = None,
    sim_tolerance: float = SIM_TOLERANCE,
    decision_tolerance: float = DECISION_TOLERANCE,
) -> TwinReport:
    """Both parity checks over one recording; returns the full report."""
    decision_max, decision_epochs = replay_decisions(recording, controller)
    report = TwinReport(
        decision_max_l1=decision_max,
        decision_epochs=decision_epochs,
        decision_ok=decision_epochs > 0 and decision_max <= decision_tolerance,
        decision_tolerance=decision_tolerance,
        sim_tolerance=sim_tolerance,
    )
    if recording.requests:
        distances, epochs = replay_simulation(recording, controller)
        report.sim_distances = distances
        report.sim_epochs = epochs
        report.sim_max_l1 = max(distances) if distances else math.inf
        report.sim_ok = epochs > 0 and report.sim_max_l1 <= sim_tolerance
    else:
        report.sim_ok = False
    return report
