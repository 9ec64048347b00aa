"""The control-plane layer: who decides the tuning rounds, and how.

Two interchangeable implementations of one contract
(:class:`ControlPlane`):

* :class:`DirectControlPlane` — the figure experiments' faithful
  shortcut: each round calls the policy's ``rebalance`` in-process
  (the delegate is a pure function of the reports, so the decisions
  are identical to the message-passing path);
* :class:`DistributedControlPlane` — the §4 control plane made of
  messages: reports travel a simulated
  :class:`~repro.distributed.network.Network` to an elected delegate
  (via :class:`~repro.distributed.control.DistributedTuningService`),
  the mapping is broadcast back, and delegate crashes force mid-run
  re-elections.

The engine owns the tuning cadence (one call to :meth:`tuning_round`
per interval) and applies whatever moves the plane returns; the plane
owns everything between "the interval elapsed" and "here are the
moves".

Neither plane knows *which* tuning rule runs: the decision procedure
is the policy's :class:`repro.control.Controller` (injected via
``ExperimentSpec.controller`` or the policy constructor), so direct
and distributed control stay decision-identical for every controller
in the family, including stateful ones (the distributed service forks
the replicated controller state per round; see
:mod:`repro.distributed.control`).
"""

from __future__ import annotations

import random
from typing import List, Optional, TYPE_CHECKING

from ..core.tuning import LatencyReport
from ..policies.base import LazyKnowledge, Move, RebalanceContext
from .probes import DelegateElected, RelocationApplied

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..distributed.control import DistributedTuningService
    from ..distributed.network import Network
    from .engine import ClusterEngine

__all__ = [
    "ControlPlane",
    "DirectControlPlane",
    "DistributedControlPlane",
    "publish_relocation",
]


class ControlPlane:
    """Decides placement changes once per tuning interval."""

    def attach(self, engine: "ClusterEngine") -> None:
        """Wire the plane into a freshly assembled engine (once)."""

    def tuning_round(self, engine: "ClusterEngine") -> List[Move]:
        """Run one tuning round; returns the moves to apply.

        Implementations collect the servers' interval reports (closing
        their measurement windows), advance ``engine._round``, and
        produce the round's moves. The engine applies them (charging
        cache costs) and records the movement.
        """
        raise NotImplementedError


class DirectControlPlane(ControlPlane):
    """In-process tuning: reports feed ``policy.rebalance`` directly."""

    def tuning_round(self, engine: "ClusterEngine") -> List[Move]:
        reports = [
            srv.interval_report() for srv in engine.servers.values() if not srv.failed
        ]
        engine._round += 1
        # Offered, not computed: LazyKnowledge defers the O(catalog)
        # oracle build until a prescient-class policy reads it, so
        # simple and ANU rounds skip the work entirely.
        t0 = engine.env.now
        ctx = RebalanceContext(
            now=t0,
            round_index=engine._round,
            reports=reports,
            knowledge=LazyKnowledge(engine._knowledge)
            if engine.config.supply_knowledge
            else None,
        )
        moves = engine.policy.rebalance(ctx)
        publish_relocation(engine, t0)
        return moves


def publish_relocation(engine: "ClusterEngine", time: float) -> None:
    """Drain the policy's last relocation record onto the bus.

    Policies with :class:`~repro.policies.base.RelocationStats` record
    what each reconfiguration re-resolved; publishing from the control
    plane (and the chaos layers for churn) keeps the policies below the
    engine in the layering.
    """
    consume = getattr(engine.policy, "consume_last_relocation", None)
    if consume is None:
        return
    info = consume()
    if info is None:
        return
    engine.bus.publish(
        RelocationApplied(
            time=time,
            kind=info["kind"],
            relocated=info["relocated"],
            catalog_size=info["catalog_size"],
            seconds=info["seconds"],
            mode=info["mode"],
        )
    )


class DistributedControlPlane(ControlPlane):
    """Message-level tuning rounds through an elected delegate.

    Parameters
    ----------
    delegate_crashes:
        Simulated times at which the *current* delegate crashes. The
        crash downs the node on the network (so the next round must
        re-elect) without failing its file server — modeling a control-
        plane fault rather than a data-plane one, which is the pure
        fail-over case the §4 claim addresses.
    network_rng:
        Seeded :class:`random.Random` for the network's probabilistic
        link faults (the chaos harness hands one in; ``None`` gives a
        perfectly reliable network).
    """

    def __init__(
        self,
        delegate_crashes: Optional[List[float]] = None,
        network_rng: Optional[random.Random] = None,
    ) -> None:
        self.delegate_crashes = list(delegate_crashes or [])
        self.network_rng = network_rng
        self.network: Optional[Network] = None
        self.service: Optional[DistributedTuningService] = None
        self._pending_reports: List[LatencyReport] = []
        self._last_delegate: object = None

    # ------------------------------------------------------------------ #
    def attach(self, engine: "ClusterEngine") -> None:
        # The message-level stack loads only for the plane that uses it.
        from ..distributed.control import DistributedTuningService
        from ..distributed.network import Network
        from ..policies.anu import ANURandomization  # heavy policy module

        if not isinstance(engine.policy, ANURandomization):
            raise TypeError(
                "the distributed control plane drives ANU; got "
                f"{type(engine.policy).__name__}"
            )
        self.network = Network(engine.env, rng=self.network_rng)
        self.service = DistributedTuningService(
            engine.env,
            self.network,
            engine.policy.manager,
            collect_reports=lambda: self._pending_reports,
        )
        self._last_delegate = self.service.delegate_id
        engine.bus.publish(
            DelegateElected(
                time=engine.env.now,
                delegate_id=self.service.delegate_id,
                failover=False,
            )
        )
        for t in self.delegate_crashes:
            engine.env.schedule_at(t, lambda: self._crash_delegate(engine))

    def _crash_delegate(self, engine: "ClusterEngine") -> None:
        victim = self.service.fail_delegate()
        # The node is gone from the control plane only; it rejoins after
        # the next tuning round has re-elected (1.5 intervals), so the
        # experiment measures pure delegate fail-over. (Server-failure
        # churn is exercised through schedule_failure as usual.)
        engine.env.schedule_at(
            engine.env.now + 1.5 * engine.config.tuning_interval,
            lambda: self.network.set_down(victim, False),
        )

    # ------------------------------------------------------------------ #
    def tuning_round(self, engine: "ClusterEngine") -> List[Move]:
        self._pending_reports = [
            srv.interval_report() for srv in engine.servers.values() if not srv.failed
        ]
        engine._round += 1
        rec = self.service.run_round()
        moves = [Move(s.fileset, s.source, s.target) for s in rec.sheds]
        if self.service.delegate_id != self._last_delegate:
            self._last_delegate = self.service.delegate_id
            engine.bus.publish(
                DelegateElected(
                    time=engine.env.now,
                    delegate_id=self.service.delegate_id,
                    failover=True,
                )
            )
        return moves

    # ------------------------------------------------------------------ #
    @property
    def failovers(self) -> int:
        """Delegate re-elections that were forced by crashes."""
        return self.service.failovers if self.service is not None else 0
