"""Array-native fault injection for the vectorized client path.

:class:`VectorChaosFaultLayer` is the planet-scale counterpart of
:class:`~repro.engine.fault_layer.ChaosFaultLayer`. The scalar harness
is reactive — an injector fires faults into a live simulator and a
heartbeat monitor detects them some messages later. The vectorized
driver has no per-request events and no message network to react to,
so this layer replays a *compiled* timeline instead:

1. :func:`~repro.faults.timeline.compile_timeline` resolves the seeded
   :class:`~repro.faults.schedule.FaultSchedule` into an ordered list
   of state transitions (crash, detect, readmit, reboot, partition
   evict/readmit, straggle on/off) with every detection and
   re-admission instant computed analytically on the heartbeat grid.
2. The driver drains request cohorts *between* timeline events and
   hands each event here; the layer applies it as array mutations —
   an ``alive`` mask (data plane up), an ``admitted`` mask (layout
   membership), and a per-slot ``rate`` multiplier (stragglers) — plus
   the matching policy churn call (``server_failed``/``server_added``)
   and orphan re-drive.
3. After every reconfiguration (and every interval boundary) a
   :class:`~repro.faults.vector_invariants.VectorInvariantChecker`
   sweep audits conservation, moment accounting, mask-respecting
   assignment, and layout/alive-set agreement.

Orphan lifecycle: a crash extracts the victim's queued-but-unfinished
completions into the driver's orphan pool (counted as ``timeouts`` —
the scalar analogue of attempts abandoned on a dead target); arrivals
routed to a crashed-but-undetected slot join the pool as they arrive.
Each reconfiguration re-drives the affected pool through the current
assignment (counted as ``retries``; landing on a different server is a
``redirect``), preserving the original arrival time so measured
latency includes the full outage, exactly like the scalar hardened
client.

Deviations from the scalar semantics, all deliberate and documented:

* Partitions isolate the *control plane only*: the victim keeps
  draining its queue (``alive`` stays true) while the detector evicts
  it from the layout — there are no client-visible messages to cut.
* A straggler's rate multiplier applies to whole sub-window cohorts at
  drain time rather than to the individual slice in progress.
* ``FaultInjected`` bus events are published for crash and straggle
  application instants; partitions appear in the ``applied`` ledger
  (they have no data-plane instant on this path) and link faults are
  compiled to counted skips.

Import discipline: ``repro.engine`` must not import ``repro.faults``
at module level (the layering gate enforces it); everything from there
loads inside :meth:`attach`.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

import numpy as np

from ..core.errors import ConfigurationError
from .probes import (
    FailureDeclared,
    FaultInjected,
    InvariantAudit,
    MovesApplied,
    RecoveryDeclared,
)
from .control import publish_relocation
from .record import ChaosConfig, ChaosResult, FailureRecord
from .fault_layer import FaultLayer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.schedule import FaultSchedule
    from ..faults.timeline import ChaosTimeline, TimelineEvent
    from ..faults.vector_invariants import VectorInvariantChecker
    from .engine import ClusterEngine
    from .record import ClusterResult

__all__ = ["VectorChaosFaultLayer"]


class VectorChaosFaultLayer(FaultLayer):
    """Compiled-timeline chaos for :class:`VectorizedRequestDriver`.

    Parameters
    ----------
    schedule:
        The fault script to execute (default: empty schedule).
    chaos:
        Harness configuration; its ``seed`` is the replay key embedded
        in every violation artifact, and its heartbeat knobs define
        the analytic detection grid.
    """

    def __init__(
        self,
        schedule: Optional["FaultSchedule"] = None,
        chaos: Optional[ChaosConfig] = None,
    ) -> None:
        self.chaos = chaos or ChaosConfig()
        self.schedule = schedule
        self.engine: Optional["ClusterEngine"] = None
        self.timeline: Optional["ChaosTimeline"] = None
        self.checker: Optional["VectorInvariantChecker"] = None
        #: Crash/suspect timelines (resolved at compile time).
        self.failures: List[FailureRecord] = []
        #: Data plane up (false between crash and reboot/readmit-heal).
        self.alive: Optional[np.ndarray] = None
        #: Layout membership (false between detect and readmit).
        self.admitted: Optional[np.ndarray] = None
        #: Per-slot service-rate multiplier (straggle factor).
        self.rate: Optional[np.ndarray] = None
        self._degraded_slots = 0
        # Ledger counters (scalar hardened-client analogues).
        self.retries = 0
        self.redirects = 0
        self.timeouts = 0
        self.failure_declarations = 0
        self.recovery_declarations = 0
        #: Compat with the scalar chaos surface (no live detector).
        self.monitor = None
        self.injector = None

    # ------------------------------------------------------------------ #
    def attach(self, engine: "ClusterEngine") -> None:
        from ..faults.schedule import FaultSchedule
        from ..faults.timeline import compile_timeline
        from ..faults.vector_invariants import VectorInvariantChecker

        if self.schedule is None:
            self.schedule = FaultSchedule()
        driver = engine.driver
        if not hasattr(driver, "attach_chaos"):
            raise ConfigurationError(
                "VectorChaosFaultLayer needs the vectorized client path "
                f"(driver {type(driver).__name__} has no attach_chaos); "
                "use ChaosFaultLayer on scalar paths"
            )
        policy = engine.policy
        for hook in ("server_failed", "server_added"):
            if not callable(getattr(policy, hook, None)):
                raise ConfigurationError(
                    f"policy {type(policy).__name__} lacks {hook}(); "
                    "vectorized chaos needs churn-capable policies"
                )
        self.engine = engine
        server_ids = list(engine.config.server_powers)
        self.server_ids = server_ids
        n = len(server_ids)
        self.alive = np.ones(n, dtype=bool)
        self.admitted = np.ones(n, dtype=bool)
        self.rate = np.ones(n, dtype=np.float64)
        self._servers = [engine.servers[sid] for sid in server_ids]
        self.timeline = compile_timeline(
            self.schedule, self.chaos, server_ids, engine.workload.duration
        )
        self.failures = self.timeline.failures
        self.checker = VectorInvariantChecker(
            driver,
            policy,
            lambda: self.admitted,
            server_ids,
            seed=self.chaos.seed,
            schedule=self.schedule,
            now=lambda: engine.env.now,
        )
        driver.attach_chaos(self)

    # ------------------------------------------------------------------ #
    def effective_powers(self, base: np.ndarray) -> np.ndarray:
        """Per-slot service powers with active straggle factors applied."""
        if self._degraded_slots == 0:
            return base
        return base * self.rate

    # ------------------------------------------------------------------ #
    def apply_event(self, event: "TimelineEvent") -> None:
        """Apply one compiled transition (driver already drained to it)."""
        engine = self.engine
        driver = engine.driver
        s = event.slot
        t = event.time
        server = self._servers[s]
        action = event.action
        if action == "crash":
            self.alive[s] = False
            # Queued-but-unfinished work dies with the server; the
            # extracted requests await re-location in the orphan pool.
            self.timeouts += driver.orphan_extract(s, t)
            server.fail()
            engine.bus.publish(
                FaultInjected(time=t, kind="crash", target=event.server_id)
            )
        elif action in ("detect", "part-detect"):
            self.failure_declarations += 1
            engine.bus.publish(FailureDeclared(time=t, server_id=event.server_id))
            if self.admitted[s] and int(self.admitted.sum()) > 1:
                self.admitted[s] = False
                self._churn("fail", event)
            self._redrive(s, t)
            self.sweep(action, t)
        elif action in ("readmit", "part-readmit"):
            if server.failed:
                server.recover()
                driver.reset_free_at(s, t)
            self.alive[s] = True
            self.recovery_declarations += 1
            engine.bus.publish(RecoveryDeclared(time=t, server_id=event.server_id))
            if not self.admitted[s]:
                self.admitted[s] = True
                self._churn("recover", event)
            self._redrive(s, t)
            self.sweep(action, t)
        elif action == "reboot":
            # Undetected blip: the layout never changed; the server
            # reboots in place and its orphans re-queue right there.
            if server.failed:
                server.recover()
                driver.reset_free_at(s, t)
            self.alive[s] = True
            self._redrive(s, t)
        elif action == "straggle-on":
            if self.rate[s] == 1.0:
                self._degraded_slots += 1
            self.rate[s] = event.factor
            server.set_power_factor(event.factor)
            engine.bus.publish(
                FaultInjected(time=t, kind="straggle", target=event.server_id)
            )
        elif action == "straggle-off":
            if self.rate[s] != 1.0:
                self._degraded_slots -= 1
            self.rate[s] = 1.0
            server.set_power_factor(1.0)
        else:  # pragma: no cover - compile_timeline validates actions
            raise ValueError(f"unknown timeline action {action!r}")

    # ------------------------------------------------------------------ #
    def _churn(self, kind: str, event: "TimelineEvent") -> None:
        """One membership change through the policy, moves published."""
        engine = self.engine
        policy = engine.policy
        before = getattr(policy, "total_sheds", 0)
        if kind == "fail":
            policy.server_failed(event.server_id)
        else:
            server = engine.servers.get(event.server_id)
            policy.server_added(
                event.server_id,
                power_hint=server.base_power if server is not None else None,
            )
        sheds = int(getattr(policy, "total_sheds", 0) - before)
        # Published directly: emit_moves=False policies return empty
        # move lists, so engine._apply_moves would log zero. The cache
        # layer is disabled on this path, so there is no move cost to
        # charge either.
        engine.bus.publish(
            MovesApplied(
                time=event.time,
                round_index=engine._round,
                kind=kind,
                moves=sheds,
                moved_work_share=0.0,
            )
        )
        publish_relocation(engine, event.time)

    def _redrive(self, slot: int, t: float) -> None:
        """Re-locate the orphan pool of ``slot`` through the new layout."""
        redriven, redirected = self.engine.driver.redrive_orphans(slot, t)
        self.retries += redriven
        self.redirects += redirected

    def sweep(self, trigger: str, time: float, final: bool = False) -> None:
        """One full invariant sweep, audited on the bus."""
        self.checker.check(trigger, final=final)
        self.engine.bus.publish(
            InvariantAudit(
                time=time,
                trigger=trigger,
                violations=len(self.checker.violations),
            )
        )

    # ------------------------------------------------------------------ #
    def finalize(self, engine: "ClusterEngine", base: "ClusterResult") -> ChaosResult:
        """Final sweep, then the robustness result view.

        The vector path neither abandons nor loses requests: everything
        in flight at the horizon is classified — still queued on a
        server (``queued``) or awaiting re-location in the orphan pool
        (``backoff``) — and the final conservation sweep has already
        proven the split exact.
        """
        driver = engine.driver
        self.sweep("final", engine.env.now, final=True)
        orphaned = driver.orphan_count()
        discarded = driver._discarded
        return ChaosResult(
            base=base,
            seed=self.chaos.seed,
            schedule=self.schedule,
            detection_latency_bound=self.chaos.detection_latency_bound,
            faults_injected=self.timeline.injected,
            faults_skipped=self.timeline.skipped,
            applied=list(self.timeline.applied),
            failures=list(self.failures),
            requests_injected=driver.submitted,
            requests_completed=driver.landed,
            requests_failed=0,
            requests_in_flight=discarded + orphaned,
            retries=self.retries,
            redirects=self.redirects,
            timeouts=self.timeouts,
            failure_declarations=self.failure_declarations,
            recovery_declarations=self.recovery_declarations,
            invariant_checks=self.checker.checks,
            invariant_violations=len(self.checker.violations),
            requests_in_flight_queued=discarded,
            requests_in_flight_backoff=orphaned,
        )
