"""The composable cluster engine.

:class:`ClusterEngine` is the one simulation driver behind every
experiment in the repo, assembled from four explicit layers:

* a :class:`~repro.engine.control.ControlPlane` — who decides the
  tuning rounds (in-process shortcut vs message-level delegate);
* a :class:`~repro.engine.client_path.ClientPath` — how requests enter
  the cluster (route-once vs hardened retry/redirect);
* a :class:`~repro.engine.fault_layer.FaultLayer` — what goes wrong
  (nothing vs the chaos harness);
* instrumentation — a :class:`~repro.engine.probes.ProbeBus` every
  layer publishes to, with the canonical
  :class:`~repro.engine.record.RunRecord` built by a bus subscriber
  like any other observer.

Assembly order is part of the determinism contract: layers are built
in a fixed sequence (servers → placement → driver → tuner → control
plane → fault layer), so the order of their first calendar entries —
and therefore every event tie-break — never changes and the golden
fingerprints match bit-for-bit.

Describe one with :class:`~repro.engine.builder.ExperimentSpec` and
assemble it with ``ExperimentSpec.build()``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from ..policies.base import LazyKnowledge, LoadManager, Move, PrescientKnowledge
from ..sim import Simulator
from .client_path import BasicClientPath, ClientPath, RequestDriver
from .control import ControlPlane, DirectControlPlane
from .fault_layer import FaultLayer, NullFaultLayer
from .probes import (
    MovesApplied,
    Observer,
    ProbeBus,
    RequestCompleted,
    RunCompleted,
    RunStarted,
    ServerFailed,
    ServerRecovered,
)
from .record import ClusterConfig, ClusterResult, RunRecord, RunRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .client_path import HardenedClient
    from ..cluster.request import MetadataRequest
    from ..cluster.server import FileServer
    from ..workloads.synthetic import Workload

__all__ = ["ClusterEngine"]


class ClusterEngine:
    """One policy × one workload × one cluster configuration.

    Parameters
    ----------
    workload, policy, config:
        The experiment triple.
    control:
        The control-plane layer (default: :class:`DirectControlPlane`).
    client_path:
        The client-path layer (default: :class:`BasicClientPath`).
    faults:
        The fault layer (default: :class:`NullFaultLayer`).
    bus:
        Probe bus to publish on (default: a fresh one). Subscribe
        observers *before* construction to receive assembly events.
    observers:
        :class:`~repro.engine.probes.Observer` instances attached to
        the bus before any layer is built.
    """

    def __init__(
        self,
        workload: "Workload",
        policy: LoadManager,
        config: ClusterConfig,
        control: Optional[ControlPlane] = None,
        client_path: Optional[ClientPath] = None,
        faults: Optional[FaultLayer] = None,
        bus: Optional[ProbeBus] = None,
        observers: Sequence[Observer] = (),
    ) -> None:
        # Deferred: the cluster package's client imports the engine's
        # client path, so importing it at module level would be circular.
        from ..cluster.cache import CacheModel
        from ..cluster.server import FileServer

        self.workload = workload
        self.policy = policy
        self.config = config
        self.bus = bus if bus is not None else ProbeBus()
        self.record = RunRecord()
        self._recorder = RunRecorder(self.record).attach(self.bus)
        for observer in observers:
            observer.attach(self.bus)

        self.env = Simulator()
        self.cache = CacheModel(config.cache)
        track = policy.reads_fileset_work
        self.servers: Dict[object, "FileServer"] = {
            sid: FileServer(self.env, sid, power, self.cache, track)
            for sid, power in config.server_powers.items()
        }
        self._round = 0
        # Initial placement before t=0 (prescient systems are balanced
        # "from the very beginning, time 0", §5.2.1). The oracle is
        # offered lazily: the catalog scan only runs if the policy
        # actually reads it.
        knowledge = (
            LazyKnowledge(lambda: self._knowledge(0.0))
            if config.supply_knowledge
            else None
        )
        self.policy.initial_placement(workload.catalog, knowledge)
        # Layer assembly — this order fixes every event tie-break and
        # must not change (see module doc).
        self.client_path = client_path if client_path is not None else BasicClientPath()
        self.driver: RequestDriver = self.client_path.build(self)
        # Armed from a start hop: the first tick is scheduled after every
        # entry already due at t=0, not at construction.
        self.env.schedule_at(self.env.now, self._arm_tuner)
        self.control = control if control is not None else DirectControlPlane()
        self.control.attach(self)
        self.faults = faults if faults is not None else NullFaultLayer()
        self.faults.attach(self)
        if self.bus.wants(RequestCompleted):
            self.enable_completion_probe()
        self.bus.publish(
            RunStarted(
                time=self.env.now,
                policy_name=self.policy.name,
                n_servers=len(self.servers),
            )
        )

    # ------------------------------------------------------------------ #
    # instrumentation
    # ------------------------------------------------------------------ #
    def enable_completion_probe(self) -> None:
        """Publish :class:`RequestCompleted` for every served request.

        Off by default (it is the only per-request event); called
        automatically when someone subscribed before assembly.
        """
        bus = self.bus
        env = self.env
        for srv in self.servers.values():
            def probe(request, sid=srv.server_id):
                bus.publish(
                    RequestCompleted(
                        time=env.now,
                        server_id=sid,
                        fileset=request.fileset,
                        latency=request.latency,
                    )
                )
            srv.probe = probe

    # ------------------------------------------------------------------ #
    # routing and knowledge
    # ------------------------------------------------------------------ #
    def _route(self, request: "MetadataRequest") -> Optional["FileServer"]:
        sid = self.policy.locate(request.fileset)
        server = self.servers.get(sid)
        if server is None or server.failed:
            return None
        return server

    def _knowledge(self, t0: float) -> PrescientKnowledge:
        """Oracle for the interval starting at ``t0``."""
        t1 = t0 + self.config.tuning_interval
        return PrescientKnowledge(
            server_powers={
                sid: srv.power for sid, srv in self.servers.items() if not srv.failed
            },
            upcoming_work=self.workload.work_between(t0, t1),
            average_work=self._average_work,
        )

    @cached_property
    def _average_work(self) -> Dict[str, float]:
        """Each file set's mean work per tuning interval, built once."""
        catalog, duration = self.workload.catalog, self.workload.duration
        interval = self.config.tuning_interval
        return {n: catalog.get(n).total_work / duration * interval for n in catalog.names}

    # ------------------------------------------------------------------ #
    # the tuning tick
    # ------------------------------------------------------------------ #
    def _arm_tuner(self) -> None:
        self.env.schedule_at(self.env.now + self.config.tuning_interval, self._tune)

    def _tune(self) -> None:
        """One tuning round; the entry then reschedules itself."""
        moves = self.control.tuning_round(self)
        self._apply_moves(moves, kind="tune")
        self._arm_tuner()

    def _apply_moves(self, moves: Sequence[Move], kind: str) -> None:
        moved_share = 0.0
        for move in moves:
            fs = self.workload.catalog.get(move.fileset)
            moved_share += self.workload.catalog.work_share(move.fileset)
            flush = self.cache.on_shed(
                move.fileset,
                move.source,
                move.target,
                self.env.now,
                fs.mean_request_work,
            )
            source = self.servers.get(move.source)
            if source is not None and not source.failed:
                source.charge_flush(flush)
        # The movement log is recorder-built: publishing is what appends.
        self.bus.publish(
            MovesApplied(
                time=self.env.now,
                round_index=self._round,
                kind=kind,
                moves=len(moves),
                moved_work_share=moved_share,
            )
        )

    # ------------------------------------------------------------------ #
    # churn injection
    # ------------------------------------------------------------------ #
    def schedule_failure(self, time: float, server_id: object) -> None:
        """Fail ``server_id`` at simulated ``time`` (before :meth:`run`)."""
        self.env.schedule_at(time, lambda: self._fail_now(server_id))

    def schedule_recovery(self, time: float, server_id: object) -> None:
        """Recover ``server_id`` at simulated ``time``."""
        self.env.schedule_at(time, lambda: self._recover_now(server_id))

    def _fail_now(self, server_id: object) -> None:
        server = self.servers[server_id]
        orphans = server.fail()
        self.bus.publish(ServerFailed(time=self.env.now, server_id=server_id))
        moves = self.policy.server_failed(server_id)
        self._apply_moves(moves, kind="fail")
        # Clients re-issue the dropped requests to the new owners.
        for request in orphans:
            target = self._route(request)
            if target is not None:
                target.submit(request)

    def _recover_now(self, server_id: object) -> None:
        server = self.servers[server_id]
        server.recover()
        self.bus.publish(ServerRecovered(time=self.env.now, server_id=server_id))
        moves = self.policy.server_added(server_id, power_hint=server.power)
        self._apply_moves(moves, kind="recover")

    # ------------------------------------------------------------------ #
    # views into the layers
    # ------------------------------------------------------------------ #
    @property
    def movement(self):
        """The movement log (a live view of the run record)."""
        return self.record.movement

    @property
    def delegate_history(self) -> List[object]:
        """Delegates in office over the run (first entry = initial)."""
        return self.record.delegate_history

    @property
    def network(self):
        """The control-plane network (distributed planes only)."""
        network = getattr(self.control, "network", None)
        if network is None:
            raise AttributeError(
                f"{type(self.control).__name__} has no network "
                "(direct control plane)"
            )
        return network

    @property
    def failovers(self) -> int:
        """Delegate re-elections that were forced by crashes."""
        return self.control.failovers

    def control_traffic(self) -> Dict[str, int]:
        """Control-plane messages sent, by kind."""
        return dict(self.network.sent_count)

    @property
    def client(self) -> Optional["HardenedClient"]:
        """The hardened client, when the path uses one (else ``None``)."""
        return getattr(self.driver, "client", None)

    @property
    def monitor(self):
        """The failure detector, when a chaos layer installed one."""
        return getattr(getattr(self, "faults", None), "monitor", None)

    # ------------------------------------------------------------------ #
    def run(self, until: Optional[float] = None) -> ClusterResult:
        """Execute the simulation and collect results.

        Runs until ``until`` (default: the workload duration). The
        tuning loop is perpetual, so the run is always bounded by the
        deadline rather than calendar exhaustion.
        """
        horizon = until if until is not None else self.workload.duration
        self.env.run(until=horizon)
        self.bus.publish(
            RunCompleted(time=self.env.now, events_processed=self.env.events_processed)
        )
        # Drivers that accumulate completion cohorts themselves hand
        # the aggregate over directly (the vectorized path — server
        # tallies there do not retain raw samples). Otherwise
        # concatenate the tally buffer *views*: ``samples`` would copy
        # each server's buffer first and concatenate would copy again.
        collect = getattr(self.driver, "collected_latencies", None)
        if collect is not None:
            all_lat = collect()
        elif self.servers:
            all_lat = np.concatenate(
                [srv.completed.samples_view() for srv in self.servers.values()]
            )
        else:
            all_lat = np.empty(0)
        return ClusterResult(
            policy_name=self.policy.name,
            config=self.config,
            duration=horizon,
            server_latency={sid: s.latency_series for sid, s in self.servers.items()},
            server_tally={sid: s.completed for sid, s in self.servers.items()},
            server_requests={
                sid: s.completed_requests for sid, s in self.servers.items()
            },
            server_utilization={
                sid: s.utilization(horizon) for sid, s in self.servers.items()
            },
            movement=list(self.record.movement),
            shared_state_entries=self.policy.shared_state_entries(),
            submitted=self.driver.submitted,
            completed=sum(s.completed_requests for s in self.servers.values()),
            all_latencies=all_lat,
            events_processed=self.env.events_processed,
        )

    def run_chaos(self, until: Optional[float] = None):
        """Execute the run and collect the fault layer's result view.

        With a :class:`~repro.engine.fault_layer.ChaosFaultLayer` this
        is a :class:`~repro.engine.record.ChaosResult`; with the null
        layer it is the plain :class:`ClusterResult`.
        """
        base = self.run(until)
        return self.faults.finalize(self, base)
