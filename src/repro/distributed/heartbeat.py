"""Heartbeat failure detection.

The framework "treats commissioning (installing) or decommissioning
servers the same as a recovery or failure" (§4) — but someone has to
*notice* the failure. :class:`HeartbeatMonitor` is that someone: a
calendar entry on the observing node that probes peers every ``period``
seconds and declares a peer failed after ``misses`` consecutive
unanswered probes, invoking a callback (typically the membership hook
of the ANU manager plus a delegate re-election if the delegate died).

Recovery is hysteretic: a peer that was declared failed must answer
``recoveries`` *consecutive* probes before it is un-declared. Without
the hysteresis a flapping link (one answered probe among many losses)
would bounce a peer between failed and live every few periods, and
each bounce costs a full reconfiguration — the fail/recover storm the
chaos harness exists to provoke.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from ..sim import Simulator
from .network import Network

__all__ = ["HeartbeatMonitor"]


class HeartbeatMonitor:
    """Periodic liveness probing of a set of peers.

    Parameters
    ----------
    env, network:
        Simulation substrate.
    observer:
        Node id issuing the probes.
    peers:
        Node ids to watch.
    period:
        Seconds between probe rounds.
    misses:
        Consecutive unanswered probes before declaring failure.
    recoveries:
        Consecutive *answered* probes before un-declaring a failed
        peer (recovery hysteresis; ``1`` restores the legacy
        instant-recovery behavior).
    on_failure / on_recovery:
        Callbacks ``cb(peer_id)`` fired on state transitions. Recovery
        is detected when a previously failed peer answers again.
    """

    def __init__(
        self,
        env: Simulator,
        network: Network,
        observer: object,
        peers: Iterable[object],
        period: float = 1.0,
        misses: int = 3,
        recoveries: int = 2,
        on_failure: Optional[Callable[[object], None]] = None,
        on_recovery: Optional[Callable[[object], None]] = None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        if misses < 1:
            raise ValueError(f"misses must be >= 1, got {misses}")
        if recoveries < 1:
            raise ValueError(f"recoveries must be >= 1, got {recoveries}")
        self.env = env
        self.network = network
        self.observer = observer
        self.peers = list(peers)
        self.period = float(period)
        self.misses = int(misses)
        self.recoveries = int(recoveries)
        self.on_failure = on_failure
        self.on_recovery = on_recovery
        self._miss_count: Dict[object, int] = {p: 0 for p in self.peers}
        self._success_count: Dict[object, int] = {p: 0 for p in self.peers}
        self._declared_failed: set = set()
        #: Failure declarations made so far (flap-storm diagnostic).
        self.failure_declarations = 0
        #: Recovery declarations made so far.
        self.recovery_declarations = 0
        env.schedule_at(env.now, self._arm)

    # ------------------------------------------------------------------ #
    @property
    def suspected(self) -> set:
        """Peers currently declared failed."""
        return set(self._declared_failed)

    def watch(self, peer: object) -> None:
        """Add a peer to the probe set (idempotent)."""
        if peer not in self._miss_count:
            self.peers.append(peer)
            self._miss_count[peer] = 0
            self._success_count[peer] = 0

    def _arm(self) -> None:
        self.env.schedule_at(self.env.now + self.period, self._probe_round)

    def _probe_round(self) -> None:
        """Probe every peer once; the entry then reschedules itself."""
        for peer in self.peers:
            if self.network.probe(self.observer, peer):
                self._miss_count[peer] = 0
                if peer in self._declared_failed:
                    self._success_count[peer] += 1
                    if self._success_count[peer] >= self.recoveries:
                        self._declared_failed.discard(peer)
                        self._success_count[peer] = 0
                        self.recovery_declarations += 1
                        if self.on_recovery is not None:
                            self.on_recovery(peer)
            else:
                self._success_count[peer] = 0
                self._miss_count[peer] += 1
                if (
                    self._miss_count[peer] >= self.misses
                    and peer not in self._declared_failed
                ):
                    self._declared_failed.add(peer)
                    self.failure_declarations += 1
                    if self.on_failure is not None:
                        self.on_failure(peer)
        self._arm()

    def detection_latency_bound(self) -> float:
        """Worst-case seconds from crash to declaration."""
        return self.period * (self.misses + 1)

    def recovery_latency_bound(self) -> float:
        """Worst-case seconds from heal to recovery declaration."""
        return self.period * (self.recoveries + 1)
