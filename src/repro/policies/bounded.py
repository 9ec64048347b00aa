"""Consistent hashing with bounded loads (Mirrokni et al., 2018).

The modern static baseline the scaling benchmark compares ANU against:
file sets hash onto a replica ring; each is placed on the first
clockwise server whose load is still below ``ceil(c · m / n)`` items
(``c`` = :attr:`capacity_factor`). The bound caps the maximum load at
``c×`` the mean regardless of hash skew — but it is *static*: capacity
counts items, not work, and never adapts to server heterogeneity, which
is exactly the axis ANU tunes on.

This is an order-invariant batch variant: rather than inserting items
one at a time (where placement depends on arrival order), round ``r``
offers every still-unplaced item to the ``r``-th server on its
clockwise walk, admitting per server in hash-offset order up to the
remaining capacity. Deterministic in the name set alone, which is what
a reproducible benchmark needs; the load bound is enforced exactly.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..cluster.fileset import FileSetCatalog
from ..core.errors import ConfigurationError
from ..core.hashing import HashFamily
from ..core.vector import run_bounds
from .base import (
    LoadManager,
    Move,
    PrescientKnowledge,
    RebalanceContext,
    RelocationStats,
)

__all__ = ["BoundedLoadConsistentHashing"]


class BoundedLoadConsistentHashing(RelocationStats, LoadManager):
    """Static consistent-hash placement with a per-server load bound."""

    name = "chbl"

    def __init__(
        self,
        server_ids: List[object],
        hash_family: Optional[HashFamily] = None,
        capacity_factor: float = 1.25,
        replicas: int = 64,
    ) -> None:
        if capacity_factor <= 1.0:
            raise ConfigurationError(
                f"capacity_factor must be > 1, got {capacity_factor}"
            )
        if replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        self.server_ids = list(server_ids)
        self.hash_family = hash_family or HashFamily()
        self.capacity_factor = float(capacity_factor)
        self.replicas = int(replicas)
        self._slot: Dict[object, int] = {
            sid: i for i, sid in enumerate(self.server_ids)
        }
        # The replica ring: `replicas` points per server on the unit
        # circle, from the same hash family the items use.
        ring_names = [
            f"chbl/{sid!r}/{j}" for sid in self.server_ids for j in range(self.replicas)
        ]
        owners = np.repeat(np.arange(len(self.server_ids)), self.replicas)
        points = self.hash_family.batch_offsets(ring_names, 0)
        order = np.argsort(points, kind="stable")
        self._ring_points = points[order]
        self._ring_owner = owners[order]
        self._names: List[str] = []
        self._assign: Optional[np.ndarray] = None
        self._index: Optional[Dict[str, int]] = None
        self.capacity = 0
        #: Per-server liveness under churn (a dead server owns no ring
        #: arcs until re-admitted).
        self._alive = np.ones(len(self.server_ids), dtype=bool)
        #: Original home of each displaced item (-1 = at home). First
        #: home wins: an item bounced through several refuges still
        #: returns to its original owner on that owner's recovery.
        self._displaced_from: Optional[np.ndarray] = None
        #: Offsets of every item (kept for deterministic churn order).
        self._offsets: Optional[np.ndarray] = None
        self.total_sheds = 0
        self._init_relocation_stats()

    # ------------------------------------------------------------------ #
    def initial_placement(
        self, catalog: FileSetCatalog, knowledge: Optional[PrescientKnowledge]
    ) -> Dict[str, object]:
        self._names = list(catalog.names)
        self._index = None
        m = len(self._names)
        k = len(self.server_ids)
        ring_size = self._ring_points.size
        self.capacity = max(1, math.ceil(self.capacity_factor * m / k))
        offsets = self.hash_family.batch_offsets(self._names, 0)
        self._offsets = offsets
        self._base = np.searchsorted(
            self._ring_points, offsets, side="right"
        ) % ring_size
        assign = np.full(m, -1, dtype=np.int64)
        load = np.zeros(k, dtype=np.int64)
        self._place(np.arange(m), assign, load)
        self._assign = assign
        self.load = load
        self._displaced_from = np.full(m, -1, dtype=np.int64)
        return {}

    def _place(
        self, unplaced: np.ndarray, assign: np.ndarray, load: np.ndarray
    ) -> None:
        """Round-based bounded admission of ``unplaced`` onto the ring.

        Dead servers (``_alive`` false) have zero remaining capacity,
        so the clockwise walk skips them — the churn path reuses the
        exact initial-placement admission order.
        """
        k = len(self.server_ids)
        ring_size = self._ring_points.size
        offsets = self._offsets
        base = self._base
        avail_cap = np.where(self._alive, self.capacity, 0)
        for step in range(ring_size):
            if unplaced.size == 0:
                break
            cand = self._ring_owner[(base[unplaced] + step) % ring_size]
            # Admission order within the round: by (candidate, offset) —
            # pure in the name set, independent of catalog order.
            order = np.lexsort((offsets[unplaced], cand))
            items = unplaced[order]
            cand = cand[order]
            bounds = run_bounds(cand)
            group_start = bounds[:-1]
            sizes = np.diff(bounds)
            position = np.arange(cand.size) - np.repeat(group_start, sizes)
            admitted = position < np.maximum(avail_cap - load, 0)[cand]
            assign[items[admitted]] = cand[admitted]
            load += np.bincount(cand[admitted], minlength=k)
            unplaced = items[~admitted]
        # A round admits bounded batches, so with extreme skew a few
        # items can outlast the walk; spill them to the least-loaded
        # live server in offset order (deterministic, still
        # bound-respecting because total capacity exceeds m).
        if unplaced.size:
            live = np.flatnonzero(self._alive)
            for i in unplaced[np.argsort(offsets[unplaced], kind="stable")]:
                slot = int(live[np.argmin(load[live])])
                assign[i] = slot
                load[slot] += 1

    # ------------------------------------------------------------------ #
    def locate(self, fileset: str) -> object:
        if self._index is None:
            self._index = {name: i for i, name in enumerate(self._names)}
        return self.server_ids[self._assign[self._index[fileset]]]

    def assignment_vector(self, server_slots: Mapping[object, int]) -> np.ndarray:
        translate = np.array(
            [server_slots[sid] for sid in self.server_ids], dtype=np.int64
        )
        return translate[self._assign]

    def rebalance(self, ctx: RebalanceContext) -> List[Move]:
        """Static placement: tuning rounds change nothing."""
        return []

    # ------------------------------------------------------------------ #
    # churn (vectorized chaos path)
    # ------------------------------------------------------------------ #
    def _recompute_capacity(self) -> None:
        k_alive = int(self._alive.sum())
        if k_alive:
            self.capacity = max(
                1, math.ceil(self.capacity_factor * len(self._names) / k_alive)
            )

    def server_failed(self, server_id: object) -> List[Move]:
        """Displace a dead server's items clockwise to live servers.

        The bound rescales to the surviving count (``ceil(c·m/k_alive)``)
        and the displaced items continue their own ring walks — the
        minimal-disruption property of consistent hashing: nothing
        already on a live server moves.
        """
        slot = self._slot.get(server_id)
        if slot is None or not self._alive[slot]:
            return []
        if int(self._alive.sum()) <= 1:
            return []  # refuse to displace onto an empty cluster
        self._alive[slot] = False
        self._recompute_capacity()
        start = time.perf_counter()
        items = np.flatnonzero(self._assign == slot)
        if items.size:
            # First home wins: only record a home for items that were
            # not already refugees from an earlier crash.
            fresh = self._displaced_from[items] == -1
            self._displaced_from[items[fresh]] = slot
            self.load[slot] -= items.size
            self._assign[items] = -1
            self._place(items, self._assign, self.load)
            self.total_sheds += int(items.size)
        self._note_relocation(
            "fail", int(items.size), len(self._names),
            time.perf_counter() - start,
        )
        return []

    def server_added(self, server_id: object, power_hint=None) -> List[Move]:
        """Return a recovered server's displaced items to their home.

        Exactly the items the crash displaced move back (their original
        placement respected the original, tighter bound); everything
        else stays put, and the bound relaxes back toward the full-
        cluster capacity.
        """
        slot = self._slot.get(server_id)
        if slot is None or self._alive[slot]:
            return []
        self._alive[slot] = True
        self._recompute_capacity()
        start = time.perf_counter()
        home = np.flatnonzero(self._displaced_from == slot)
        if home.size:
            refuge = self._assign[home]
            self.load -= np.bincount(refuge, minlength=self.load.size)
            self._assign[home] = slot
            self.load[slot] += home.size
            self._displaced_from[home] = -1
            self.total_sheds += int(home.size)
        self._note_relocation(
            "recover", int(home.size), len(self._names),
            time.perf_counter() - start,
        )
        return []

    def shared_state_entries(self) -> int:
        """The ring plus one load counter per server."""
        return self._ring_points.size + len(self.server_ids)
