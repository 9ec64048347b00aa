"""Chord-style ring addressing — the paper's footnote-1 alternative.

"The addressing information could also be implemented in the
Chord-style ring [35] to avoid replication at the expense of log(n)
probes to the data structure." (§5.4, footnote 1)

A virtual-processor deployment can either replicate the full VP→server
address table everywhere (O(Nv) state per node, 1 probe) or hold the
VPs on a Chord ring where each node keeps only a finger table
(O(log Nv) state, O(log Nv) routing hops per lookup). This module
implements the ring so the trade-off is *measured*, not asserted:

* nodes (the VPs) hash onto the same unit interval the rest of the
  repo uses;
* each node keeps ``ceil(log2 N)`` fingers (successor of
  ``id + 2^-i``);
* :meth:`ChordRing.route` resolves a key's successor, counting hops.

The A10 claims of ``repro.experiments.claims`` compare measured hops
against the log2(N) bound and the state against the replicated table.
"""

from __future__ import annotations

import bisect
import math
from typing import List, Optional, Tuple

from ..core.hashing import HashFamily

__all__ = ["ChordNode", "ChordRing"]


class ChordNode:
    """One ring member: its position and finger table."""

    __slots__ = ("node_id", "position", "fingers")

    def __init__(self, node_id: object, position: float) -> None:
        self.node_id = node_id
        #: Position on the unit ring, in [0, 1).
        self.position = position
        #: Finger i points at the successor of ``position + 2^-(i+1)``.
        self.fingers: List["ChordNode"] = []

    def state_entries(self) -> int:
        """Routing entries this node holds (its fingers)."""
        return len(self.fingers)

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return f"<ChordNode {self.node_id!r} @ {self.position:.4f}>"


class ChordRing:
    """A consistent-hashing ring with Chord finger routing.

    Parameters
    ----------
    node_ids:
        Ring members (e.g. virtual-processor names).
    hash_family:
        Shared family used to position both nodes and keys — the same
        addressing substrate as ANU, so comparisons are apples to
        apples.
    """

    def __init__(self, node_ids: List[object], hash_family: Optional[HashFamily] = None) -> None:
        if not node_ids:
            raise ValueError("ring needs at least one node")
        if len(set(map(repr, node_ids))) != len(node_ids):
            raise ValueError("duplicate node ids")
        self.hash_family = hash_family or HashFamily()
        self._nodes: List[ChordNode] = sorted(
            (ChordNode(nid, self.hash_family.offset(f"chord-node:{nid!r}")) for nid in node_ids),
            key=lambda n: n.position,
        )
        self._positions: List[float] = [n.position for n in self._nodes]
        self._build_fingers()

    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> List[ChordNode]:
        """Ring members in position order."""
        return list(self._nodes)

    def successor(self, point: float) -> ChordNode:
        """First node at or clockwise-after ``point`` on the ring."""
        idx = bisect.bisect_left(self._positions, point % 1.0)
        return self._nodes[idx % len(self._nodes)]

    def _build_fingers(self) -> None:
        n_fingers = max(1, math.ceil(math.log2(max(2, len(self._nodes)))))
        for node in self._nodes:
            node.fingers = [
                self.successor((node.position + 2.0 ** -(i + 1)) % 1.0)
                for i in range(n_fingers)
            ]

    # ------------------------------------------------------------------ #
    def owner_of(self, key: str) -> ChordNode:
        """Ground truth: the successor of the key's ring position."""
        return self.successor(self.hash_family.offset(f"chord-key:{key}"))

    def route(self, key: str, start: Optional[ChordNode] = None) -> Tuple[ChordNode, int]:
        """Route a lookup from ``start`` to the key's owner.

        Greedy Chord routing: at each node, follow the finger that gets
        closest to (without passing) the target position; returns
        ``(owner, hops)``. Hops are bounded by O(log N) w.h.p.
        """
        target = self.hash_family.offset(f"chord-key:{key}") % 1.0
        owner = self.successor(target)
        current = start if start is not None else self._nodes[0]
        hops = 0
        limit = 4 * max(1, math.ceil(math.log2(max(2, len(self._nodes))))) + 8
        while current is not owner:
            nxt = self._best_hop(current, target)
            if nxt is current:
                # No finger improves: the owner is the immediate
                # successor — one final hop.
                nxt = owner
            current = nxt
            hops += 1
            if hops > limit:  # pragma: no cover - defensive
                raise RuntimeError("Chord routing failed to converge")
        return owner, hops

    def _best_hop(self, current: ChordNode, target: float) -> ChordNode:
        """Finger that travels furthest clockwise without passing target."""
        gap = (target - current.position) % 1.0
        best, best_adv = current, 0.0
        for finger in current.fingers:
            adv = (finger.position - current.position) % 1.0
            if 0.0 < adv < gap and adv > best_adv:
                best, best_adv = finger, adv
        return best

    # ------------------------------------------------------------------ #
    def per_node_state(self) -> int:
        """Routing entries each node keeps (finger-table size)."""
        return self._nodes[0].state_entries() if self._nodes else 0
