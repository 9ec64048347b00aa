"""The distributed tuning service: ANU's control loop over messages.

The figure experiments drive :class:`~repro.core.ANUManager` directly
(function calls) because the decisions are identical; this module runs
the *same* tuning protocol the way the paper describes it operationally
— reports travel the network to an elected delegate, the delegate
decides, and the new mapping is broadcast — so the reproduction also
demonstrates:

* delegate fail-over mid-run with no decision divergence (the
  statelessness claim of §4, exercised by the control-plane tests);
* control-traffic accounting (reports + mappings per round are O(k)).

Every node holds a replica of the mapping; only the elected delegate
acts on reports. When the delegate dies, heartbeats notice, a new
election runs, and the next round proceeds from the replicated mapping
and fresh reports alone.

The tuning rule itself — which :class:`repro.control.Controller` the
cluster runs, plus any controller state (PI integrators, EWMA filters)
— is part of that replicated state: the manager holds the agreed copy,
and a newly elected delegate decides with it (``Controller.fork()`` is
what it would reconstruct). Fail-over therefore stays free for every
controller in the family, not just the stateless multiplicative rule.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..core.anu import ANUManager, Reconfiguration
from ..core.tuning import LatencyReport
from ..sim import Simulator
from .election import elect
from .messages import Message, MessageKind
from .network import Network

__all__ = ["DistributedTuningService"]


class DistributedTuningService:
    """Runs ANU tuning rounds over the simulated control plane.

    Parameters
    ----------
    env, network:
        Simulation substrate; each server id in ``manager`` is
        registered on the network.
    manager:
        The authoritative ANU manager (in a real deployment every node
        holds a replica; a single object models the agreed state).
    collect_reports:
        Callable returning the current round's reports (the cluster
        hands in its servers' interval reports here).
    """

    def __init__(
        self,
        env: Simulator,
        network: Network,
        manager: ANUManager,
        collect_reports: Callable[[], Sequence[LatencyReport]],
    ) -> None:
        self.env = env
        self.network = network
        self.manager = manager
        self.collect_reports = collect_reports
        for sid in manager.layout.server_ids:
            if sid not in network.node_ids:
                network.register(sid)
        self.delegate_id = elect(
            [s for s in manager.layout.server_ids if not network.is_down(s)]
        )
        #: Reconfigurations produced so far.
        self.history: List[Reconfiguration] = []
        #: Elections that were needed because the delegate was down.
        self.failovers = 0

    # ------------------------------------------------------------------ #
    def run_round(self) -> Reconfiguration:
        """Execute one tuning round over the network.

        1. Re-elect if the current delegate is unreachable (fail-over).
        2. Every live server sends its REPORT to the delegate.
        3. The delegate decides (``manager.tune``: the replicated
           controller and layout, nothing local) and broadcasts the
           MAPPING.
        4. Shedding servers send SHED_NOTIFY to gainers.
        """
        live = [
            s for s in self.manager.layout.server_ids if not self.network.is_down(s)
        ]
        if not live:
            raise RuntimeError("no live servers; cannot tune")
        if self.delegate_id not in live:
            self.delegate_id = elect(live)
            self.failovers += 1
        reports = [r for r in self.collect_reports() if r.server_id in live]
        for report in reports:
            self.network.send(
                Message(
                    src=report.server_id,
                    dst=self.delegate_id,
                    kind=MessageKind.REPORT,
                    payload=report,
                )
            )
        rec = self.manager.tune(reports)
        self.history.append(rec)
        # Broadcast the new mapping — "the only replicated state" (§4).
        self.network.broadcast(
            self.delegate_id,
            MessageKind.MAPPING,
            self.manager.layout.segments(),
        )
        for shed in rec.sheds:
            if shed.source is not None:
                self.network.send(
                    Message(
                        src=shed.source,
                        dst=shed.target,
                        kind=MessageKind.SHED_NOTIFY,
                        payload=shed,
                    )
                )
        return rec

    # ------------------------------------------------------------------ #
    def fail_delegate(self) -> object:
        """Kill the current delegate (test/demo hook); returns its id."""
        victim = self.delegate_id
        self.network.set_down(victim, True)
        return victim

    def round_traffic(self) -> Dict[str, int]:
        """Control messages sent so far, by kind."""
        return dict(self.network.sent_count)
