"""The fault layer: nothing, or the full chaos harness.

:class:`NullFaultLayer` is the paper-figure default — no injection, no
detector, no auditor; :meth:`finalize` hands the base result straight
through.

:class:`ChaosFaultLayer` composes the robustness stack onto an engine
with a distributed control plane:

* a :class:`~repro.distributed.heartbeat.HeartbeatMonitor` with
  recovery hysteresis — failures are *detected*, not announced: a
  crashed server leaves the layout only after the detector declares
  it, which is what makes detection latency a measurable quantity;
* an :class:`~repro.faults.invariants.InvariantChecker` hooked into
  every reconfiguration plus a periodic sweep;
* a :class:`~repro.faults.injector.FaultInjector` executing the
  ``(seed, schedule)`` fault script against this layer's injection
  surface (crash/heal, partition, straggle, link faults).

Import discipline: ``repro.faults`` imports the engine's records — so
this module must not import it at top level. Everything from
``repro.faults`` is imported inside :meth:`ChaosFaultLayer.attach`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from .probes import (
    FailureDeclared,
    FaultInjected,
    InvariantAudit,
    RecoveryDeclared,
)
from .record import ChaosConfig, ChaosResult, FailureRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..distributed.heartbeat import HeartbeatMonitor
    from ..faults.injector import FaultInjector
    from ..faults.invariants import InvariantChecker
    from ..faults.schedule import FaultSchedule
    from .engine import ClusterEngine
    from .record import ClusterResult

__all__ = ["MONITOR_ID", "FaultLayer", "NullFaultLayer", "ChaosFaultLayer"]

#: Observer node id used by the chaos heartbeat monitor.
MONITOR_ID = "chaos-monitor"


class FaultLayer:
    """What (if anything) goes wrong during the run."""

    def attach(self, engine: "ClusterEngine") -> None:
        """Wire the layer into a freshly assembled engine (once)."""

    def finalize(self, engine: "ClusterEngine", base: "ClusterResult"):
        """Post-run hook; returns the run's result view."""
        return base


class NullFaultLayer(FaultLayer):
    """No faults: the engine runs exactly the paper's experiments."""


class ChaosFaultLayer(FaultLayer):
    """Fault injection + failure detection + continuous auditing.

    Parameters
    ----------
    schedule:
        The fault script to execute (default: empty schedule).
    chaos:
        Harness configuration; its ``seed`` is the replay key embedded
        in every violation artifact.

    Requires an engine with a :class:`~repro.engine.control.DistributedControlPlane`
    (the detector and the injection surface need the network and the
    delegate) and, for the conservation invariant, a hardened client
    path.
    """

    def __init__(
        self,
        schedule: Optional["FaultSchedule"] = None,
        chaos: Optional[ChaosConfig] = None,
    ) -> None:
        self.chaos = chaos or ChaosConfig()
        self.schedule = schedule
        self.engine: Optional["ClusterEngine"] = None
        self.monitor: Optional["HeartbeatMonitor"] = None
        self.checker: Optional["InvariantChecker"] = None
        self.injector: Optional["FaultInjector"] = None
        #: Crash/suspect timelines, in fault order.
        self.failures: List[FailureRecord] = []
        self._open_records: Dict[object, FailureRecord] = {}

    # ------------------------------------------------------------------ #
    def attach(self, engine: "ClusterEngine") -> None:
        from ..distributed.heartbeat import HeartbeatMonitor
        from ..faults.injector import FaultInjector
        from ..faults.invariants import InvariantChecker
        from ..faults.schedule import FaultSchedule

        if self.schedule is None:
            self.schedule = FaultSchedule()
        network = getattr(engine.control, "network", None)
        if network is None:
            raise TypeError(
                "ChaosFaultLayer needs a DistributedControlPlane "
                f"(got {type(engine.control).__name__})"
            )
        self.engine = engine
        self.network = network
        network.register(MONITOR_ID)
        self.monitor = HeartbeatMonitor(
            engine.env,
            network,
            MONITOR_ID,
            peers=list(engine.servers),
            period=self.chaos.heartbeat_period,
            misses=self.chaos.heartbeat_misses,
            recoveries=self.chaos.heartbeat_recoveries,
            on_failure=self._on_peer_failure,
            on_recovery=self._on_peer_recovery,
        )
        self.checker = InvariantChecker(
            engine.policy.manager,
            client=engine.client,
            delegates=lambda: [engine.control.service.delegate_id],
            seed=self.chaos.seed,
            schedule=self.schedule,
            now=lambda: engine.env.now,
        )
        self.injector = FaultInjector(engine.env, self, self.schedule)
        engine.env.schedule_at(engine.env.now, self._arm_audit)

    # ------------------------------------------------------------------ #
    # injection surface (used by FaultInjector)
    # ------------------------------------------------------------------ #
    def current_delegate(self) -> object:
        """Whoever holds the delegate office right now."""
        return self.engine.control.service.delegate_id

    def crash_server(self, server_id: object) -> bool:
        """Crash a server (data + control plane); ``False`` if skipped."""
        engine = self.engine
        server = engine.servers.get(server_id)
        if server is None or server.failed:
            return False
        live = sum(1 for s in engine.servers.values() if not s.failed)
        if live <= 2:
            # Never crash the cluster below two live servers: elections
            # and the half-occupancy story need a survivor pair.
            return False
        server.fail()  # orphaned queue entries are re-driven by the client
        self.network.set_down(server_id, True)
        record = FailureRecord(server_id, "crash", t_fault=engine.env.now)
        self.failures.append(record)
        self._open_records[server_id] = record
        engine.bus.publish(
            FaultInjected(time=engine.env.now, kind="crash", target=server_id)
        )
        return True

    def heal_server(self, server_id: object) -> None:
        """Lift the crash: restore the link; recovery is then *detected*."""
        engine = self.engine
        self.network.set_down(server_id, False)
        record = self._open_records.get(server_id)
        if record is not None:
            record.t_heal = engine.env.now
        server = engine.servers.get(server_id)
        if (
            server is not None
            and server.failed
            and self.monitor is not None
            and server_id not in self.monitor.suspected
        ):
            # The blip healed before the detector declared it: the layout
            # never changed, so the server simply reboots in place.
            server.recover()
            if record is not None:
                record.t_readmit = engine.env.now
                self._open_records.pop(server_id, None)

    def apply_partition(self, nodes) -> None:
        """Isolate ``nodes`` from the rest of the control plane."""
        engine = self.engine
        self.network.set_partition(list(nodes))
        for sid in nodes:
            if sid in engine.servers and sid not in self._open_records:
                record = FailureRecord(sid, "suspect", t_fault=engine.env.now)
                self.failures.append(record)
                self._open_records[sid] = record
        engine.bus.publish(
            FaultInjected(time=engine.env.now, kind="partition", target=tuple(nodes))
        )

    def heal_partition(self) -> None:
        """Reconnect all partition groups."""
        engine = self.engine
        self.network.heal_partition()
        suspected = self.monitor.suspected if self.monitor is not None else set()
        for sid, record in list(self._open_records.items()):
            if record.kind != "suspect":
                continue
            if record.t_heal is None:
                record.t_heal = engine.env.now
            if record.t_detect is None and sid not in suspected:
                # The partition healed before the detector declared it:
                # the layout never changed, nothing to re-admit.
                record.t_readmit = engine.env.now
                self._open_records.pop(sid, None)

    def apply_straggle(self, server_id: object, factor: float) -> bool:
        """Degrade a server's power; ``False`` if it is down/degraded."""
        engine = self.engine
        server = engine.servers.get(server_id)
        if server is None or server.failed or server.degraded:
            return False
        server.set_power_factor(factor)
        engine.bus.publish(
            FaultInjected(time=engine.env.now, kind="straggle", target=server_id)
        )
        return True

    def heal_straggle(self, server_id: object) -> None:
        """Restore a straggler to nominal power."""
        server = self.engine.servers.get(server_id)
        if server is not None:
            server.set_power_factor(1.0)

    def apply_link_faults(self, drop: float, dup: float, extra_delay: float) -> None:
        """Turn on probabilistic message faults."""
        self.network.set_link_faults(drop, dup, extra_delay)
        self.engine.bus.publish(
            FaultInjected(time=self.engine.env.now, kind="link-faults", target=None)
        )

    def heal_link_faults(self) -> None:
        """Turn off probabilistic message faults."""
        self.network.clear_link_faults()

    # ------------------------------------------------------------------ #
    # detector callbacks
    # ------------------------------------------------------------------ #
    def _on_peer_failure(self, server_id: object) -> None:
        engine = self.engine
        now = engine.env.now
        record = self._open_records.get(server_id)
        if record is not None and record.t_detect is None:
            record.t_detect = now
        engine.bus.publish(FailureDeclared(time=now, server_id=server_id))
        manager = engine.policy.manager
        if server_id in manager.layout.server_ids and manager.layout.n_servers > 1:
            moves = engine.policy.server_failed(server_id)
            engine._apply_moves(moves, kind="fail")

    def _on_peer_recovery(self, server_id: object) -> None:
        engine = self.engine
        now = engine.env.now
        engine.bus.publish(RecoveryDeclared(time=now, server_id=server_id))
        server = engine.servers.get(server_id)
        if server is not None and server.failed:
            server.recover()
        manager = engine.policy.manager
        if server_id not in manager.layout.server_ids:
            moves = engine.policy.server_added(
                server_id, power_hint=server.base_power if server else None
            )
            engine._apply_moves(moves, kind="recover")
        record = self._open_records.pop(server_id, None)
        if record is not None:
            record.t_readmit = now

    # ------------------------------------------------------------------ #
    def _arm_audit(self) -> None:
        env = self.engine.env
        env.schedule_at(env.now + self.chaos.invariant_interval, self._audit)

    def _audit(self) -> None:
        """Periodic invariant sweep; the entry then reschedules itself."""
        engine = self.engine
        self.checker.check("periodic")
        engine.bus.publish(
            InvariantAudit(
                time=engine.env.now,
                trigger="periodic",
                violations=len(self.checker.violations),
            )
        )
        self._arm_audit()

    # ------------------------------------------------------------------ #
    def finalize(self, engine: "ClusterEngine", base: "ClusterResult") -> ChaosResult:
        """Final invariant sweep, then the robustness result view."""
        # A final full sweep at the horizon (fail-fast if the end state
        # is inconsistent).
        self.checker.check("final")
        engine.bus.publish(
            InvariantAudit(
                time=engine.env.now,
                trigger="final",
                violations=len(self.checker.violations),
            )
        )
        client = engine.client
        return ChaosResult(
            base=base,
            seed=self.chaos.seed,
            schedule=self.schedule,
            detection_latency_bound=self.chaos.detection_latency_bound,
            faults_injected=self.injector.injected,
            faults_skipped=self.injector.skipped,
            applied=list(self.injector.applied),
            failures=list(self.failures),
            requests_injected=client.injected,
            requests_completed=client.completed,
            requests_failed=client.failed,
            requests_in_flight=client.in_flight,
            retries=client.retries,
            redirects=client.redirects,
            timeouts=client.timeouts,
            failure_declarations=self.monitor.failure_declarations,
            recovery_declarations=self.monitor.recovery_declarations,
            invariant_checks=self.checker.checks,
            invariant_violations=len(self.checker.violations),
            requests_in_flight_queued=client.awaiting_service,
            requests_in_flight_backoff=client.backing_off,
            requests_in_flight_dispatch=client.dispatching,
        )
