"""The simulated cluster interconnect.

Cluster control traffic (reports, mappings, shed notifications,
election and heartbeat probes) flows through a :class:`Network` with a
configurable one-way delay. Nothing reads message bodies on arrival:
each registered node keeps a delivery counter (:attr:`Network.delivered`),
and delivery to a failed node silently drops the message, which is
what the election and heartbeat layers observe as a timeout.

The network keeps per-kind traffic counters so experiments can report
control-plane cost next to shared-state size (ANU's pitch is small on
*both* axes).

Fault model (the chaos harness's substrate)
-------------------------------------------
Beyond whole-node down/up, the network models the link-level faults a
real interconnect exhibits, all of them deterministic given a seeded
``rng``:

* **partitions** — :meth:`set_partition` splits the nodes into groups
  that cannot exchange messages until :meth:`heal_partition`;
* **message drop / duplication / extra delay** —
  :meth:`set_link_faults` turns on per-message random loss,
  duplication and added latency, drawn from the injected ``rng`` so
  two runs with the same seed perturb the same messages.

:meth:`probe` is the liveness primitive the heartbeat layer uses: it
accounts for the probe/ack traffic and answers whether a round-trip
would currently succeed (destination up, reachable, and neither leg
dropped).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, Optional, Sequence

from ..sim import Simulator
from .messages import Message, MessageKind

__all__ = ["Network"]


class Network:
    """Message transport between cluster nodes.

    Parameters
    ----------
    env:
        The simulator.
    delay:
        One-way delivery latency in seconds (LAN-scale default). A
        callable ``delay(msg) -> float`` may be supplied for
        distance-dependent topologies.
    rng:
        Seeded :class:`random.Random` driving the probabilistic link
        faults. Required before :meth:`set_link_faults` may enable a
        non-zero rate; a network without one is perfectly reliable.
    """

    def __init__(
        self,
        env: Simulator,
        delay: float | Callable[[Message], float] = 0.0005,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.env = env
        self._delay = delay
        self._rng = rng
        #: Messages delivered so far, per registered node.
        self.delivered: Dict[object, int] = {}
        self._down: set = set()
        # node -> partition group index; empty dict = no partition.
        # Nodes absent from an active partition map share group -1.
        self._partition_of: Dict[object, int] = {}
        # Probabilistic link-fault profile (0.0 = disabled).
        self.drop_rate = 0.0
        self.dup_rate = 0.0
        self.extra_delay = 0.0
        #: messages sent, per kind.
        self.sent_count: Dict[str, int] = {k: 0 for k in MessageKind.ALL}
        #: bytes sent, per kind.
        self.sent_bytes: Dict[str, int] = {k: 0 for k in MessageKind.ALL}
        #: messages dropped (destination down or unknown).
        self.dropped = 0
        #: messages dropped because src and dst were partitioned apart.
        self.partition_dropped = 0
        #: messages lost to random link drop.
        self.chaos_dropped = 0
        #: extra copies delivered by random duplication.
        self.chaos_duplicated = 0

    # ------------------------------------------------------------------ #
    def register(self, node_id: object) -> None:
        """Attach a node (its delivery counter starts at 0)."""
        if node_id in self.delivered:
            raise ValueError(f"node {node_id!r} already registered")
        self.delivered[node_id] = 0

    @property
    def node_ids(self) -> list:
        """All registered node ids."""
        return list(self.delivered)

    # -- failure modeling -------------------------------------------------- #
    def set_down(self, node_id: object, down: bool = True) -> None:
        """Mark a node unreachable (messages to it are dropped)."""
        if down:
            self._down.add(node_id)
        else:
            self._down.discard(node_id)

    def is_down(self, node_id: object) -> bool:
        """``True`` if the node is currently unreachable."""
        return node_id in self._down

    def set_partition(self, *groups: Iterable[object]) -> None:
        """Partition the network: nodes in different groups cannot talk.

        Nodes not named in any group form an implicit extra group of
        their own (so ``set_partition([a, b])`` isolates ``{a, b}``
        from everyone else while keeping both sides internally
        connected). Replaces any previous partition.
        """
        mapping: Dict[object, int] = {}
        for idx, group in enumerate(groups):
            for node in group:
                if node in mapping:
                    raise ValueError(f"node {node!r} appears in two partition groups")
                mapping[node] = idx
        self._partition_of = mapping

    def heal_partition(self) -> None:
        """Remove the partition: all nodes can reach each other again."""
        self._partition_of = {}

    @property
    def partitioned(self) -> bool:
        """``True`` while a partition is active."""
        return bool(self._partition_of)

    def reachable(self, src: object, dst: object) -> bool:
        """``True`` if no partition separates ``src`` from ``dst``."""
        part = self._partition_of
        if not part:
            return True
        return part.get(src, -1) == part.get(dst, -1)

    def set_link_faults(
        self,
        drop_rate: float = 0.0,
        dup_rate: float = 0.0,
        extra_delay: float = 0.0,
    ) -> None:
        """Enable probabilistic per-message faults (seeded ``rng`` required).

        ``drop_rate`` / ``dup_rate`` are per-message probabilities in
        ``[0, 1)``; ``extra_delay`` is the maximum uniformly-drawn added
        one-way latency in seconds.
        """
        for name, value in (("drop_rate", drop_rate), ("dup_rate", dup_rate)):
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value}")
        if extra_delay < 0:
            raise ValueError(f"extra_delay must be >= 0, got {extra_delay}")
        if (drop_rate or dup_rate or extra_delay) and self._rng is None:
            raise ValueError("link faults need a seeded rng (Network(rng=...))")
        self.drop_rate = float(drop_rate)
        self.dup_rate = float(dup_rate)
        self.extra_delay = float(extra_delay)

    def clear_link_faults(self) -> None:
        """Disable all probabilistic link faults."""
        self.drop_rate = self.dup_rate = self.extra_delay = 0.0

    # -- sending ------------------------------------------------------------ #
    def send(self, msg: Message) -> None:
        """Dispatch ``msg``; it arrives after the network delay."""
        msg.sent_at = self.env.now
        self.sent_count[msg.kind] += 1
        self.sent_bytes[msg.kind] += msg.wire_size
        if msg.dst not in self.delivered or msg.dst in self._down:
            self.dropped += 1
            return
        if not self.reachable(msg.src, msg.dst):
            self.partition_dropped += 1
            self.dropped += 1
            return
        rng = self._rng
        delay = self._delay(msg) if callable(self._delay) else self._delay
        if rng is not None:
            if self.drop_rate and rng.random() < self.drop_rate:
                self.chaos_dropped += 1
                self.dropped += 1
                return
            if self.extra_delay:
                delay += self.extra_delay * rng.random()
            if self.dup_rate and rng.random() < self.dup_rate:
                self.chaos_duplicated += 1
                self.env.schedule_at(self.env.now + delay, lambda: self._deliver(msg))
        self.env.schedule_at(self.env.now + delay, lambda: self._deliver(msg))

    def _deliver(self, msg: Message) -> None:
        # Re-check: the node may have died while the message was in flight.
        if msg.dst in self._down:
            self.dropped += 1
            return
        self.delivered[msg.dst] += 1

    def broadcast(self, src: object, kind: str, payload: object, dsts: Optional[Iterable[object]] = None) -> int:
        """Send one message per destination; returns the send count."""
        targets = list(dsts) if dsts is not None else [n for n in self.delivered if n != src]
        for dst in targets:
            self.send(Message(src=src, dst=dst, kind=kind, payload=payload))
        return len(targets)

    # -- liveness probing ---------------------------------------------------- #
    def probe(self, src: object, dst: object) -> bool:
        """One heartbeat round-trip: ``True`` iff it would succeed now.

        Sends the probe (and, on success, the ack) for traffic
        accounting. A probe fails when the destination is unknown or
        down, a partition separates the pair, or random link drop
        claims either leg of the round trip.
        """
        self.send(Message(src=src, dst=dst, kind=MessageKind.HEARTBEAT))
        if dst not in self.delivered or dst in self._down:
            return False
        if not self.reachable(src, dst):
            return False
        if self._rng is not None and self.drop_rate:
            # One draw per leg: the probe out, the ack back.
            if self._rng.random() < self.drop_rate or self._rng.random() < self.drop_rate:
                self.chaos_dropped += 1
                return False
        self.send(Message(src=dst, dst=src, kind=MessageKind.HEARTBEAT_ACK))
        return True

    # ------------------------------------------------------------------ #
    @property
    def total_bytes(self) -> int:
        """All bytes sent so far."""
        return sum(self.sent_bytes.values())
