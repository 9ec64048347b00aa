"""Unit-interval geometry: partitions, mapped regions, half occupancy.

This module implements the data structure at the heart of ANU
randomization (§4 of the paper):

* The unit interval is divided into ``P = 2^(ceil(lg k) + 1)`` equal
  *partitions* for ``k`` servers.
* Each server owns a *mapped region*: a set of partitions it fully
  occupies, plus at most one partition of which it occupies a prefix
  (its *partial* partition). This is the paper's "a server completely
  occupies all but one assigned sub-region, which may be partially
  occupied".
* **Half-occupancy invariant**: mapped-region lengths sum to exactly
  one half of the unit interval, guaranteeing a completely free
  partition always exists for a recovered or added server.

Occupying a *prefix* of the partial partition is the detail that makes
scaling cheap: growing or shrinking a server by ``δ`` moves exactly the
marginal slice of measure ``δ`` at the tip of its region, leaving the
rest of its key space — and hence its cached file sets — in place.

The structure supports O(1) ownership lookup (``owner_at``), O(δ·P)
grow/shrink, lossless re-partitioning (doubling ``P`` moves no load),
and full invariant auditing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .errors import InvariantViolation, UnknownServerError

__all__ = ["required_partitions", "ServerRegion", "IntervalLayout", "EPS"]

#: Absolute tolerance for fill-fraction arithmetic. Fills within EPS of
#: 0 or 1 are snapped so float drift cannot accumulate into phantom
#: slivers of mapped region.
EPS = 1e-9

#: Measure that must be mapped in a complete layout (the half-occupancy
#: invariant).
HALF = 0.5


def required_partitions(n_servers: int) -> int:
    """Partition count mandated by the paper for ``n_servers``.

    ``2^(ceil(lg k) + 1)``; e.g. 4 servers → 8 partitions, 5 servers →
    16 partitions (the Figure 3 example). For ``k = 1`` this is 2.
    """
    if n_servers < 1:
        raise ValueError(f"need at least one server, got {n_servers}")
    return 2 ** (math.ceil(math.log2(n_servers)) + 1)


@dataclass
class ServerRegion:
    """The mapped region of one server.

    Attributes
    ----------
    server_id:
        Opaque identifier (hashable) of the owning server.
    full:
        Partition indices fully occupied, in acquisition order. The
        *last* acquired partition is the first demoted when shrinking
        (LIFO), which maximizes overlap with older configurations.
    partial:
        ``(partition_index, fill)`` with ``0 < fill < 1``, or ``None``.
        The server occupies the prefix ``[p/P, (p + fill)/P)``.
    """

    server_id: object
    full: List[int] = field(default_factory=list)
    partial: Optional[Tuple[int, float]] = None

    def length(self, n_partitions: int) -> float:
        """Total measure of this region as a fraction of the unit interval."""
        fill = self.partial[1] if self.partial else 0.0
        return (len(self.full) + fill) / n_partitions

    def partitions(self) -> Iterator[int]:
        """All partition indices this region touches (full then partial)."""
        yield from self.full
        if self.partial:
            yield self.partial[0]

    def segments(self, n_partitions: int) -> List[Tuple[float, float]]:
        """Real sub-intervals ``[start, end)`` occupied, sorted by start."""
        width = 1.0 / n_partitions
        segs = [(p * width, (p + 1) * width) for p in self.full]
        if self.partial:
            p, fill = self.partial
            segs.append((p * width, (p + fill) * width))
        segs.sort()
        return segs


class IntervalLayout:
    """Assignment of servers to regions of the unit interval.

    Construct complete layouts with :meth:`initial`; thereafter mutate
    through :meth:`grow`, :meth:`shrink`, :meth:`add_server`,
    :meth:`remove_server` and :meth:`repartition`. The higher-level
    :class:`~repro.core.layout.LayoutEngine` sequences those primitives
    so the half-occupancy invariant holds between tuning rounds.
    """

    def __init__(self, n_partitions: int) -> None:
        if n_partitions < 2 or n_partitions & (n_partitions - 1):
            raise InvariantViolation(
                f"partition count must be a power of two >= 2, got {n_partitions}"
            )
        self.n_partitions = n_partitions
        self._regions: Dict[object, ServerRegion] = {}
        # _owner[p] is the server id whose region touches partition p
        # (fully or partially), or None when p is completely free.
        self._owner: List[Optional[object]] = [None] * n_partitions

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def initial(cls, server_ids: List[object], n_partitions: Optional[int] = None) -> "IntervalLayout":
        """Equal-share layout: every server gets length ``1/(2k)``.

        This is ANU's cold start — "ANU randomization initially assigns
        servers mapped regions of equal length, because it has no
        knowledge of server capabilities" (§4).
        """
        if not server_ids:
            raise InvariantViolation("cannot build a layout with zero servers")
        if len(set(server_ids)) != len(server_ids):
            raise InvariantViolation("duplicate server ids")
        k = len(server_ids)
        n_parts = n_partitions if n_partitions is not None else required_partitions(k)
        if n_parts < required_partitions(k):
            raise InvariantViolation(
                f"{n_parts} partitions < required {required_partitions(k)} for k={k}"
            )
        layout = cls(n_parts)
        share = HALF / k
        for sid in server_ids:
            layout._regions[sid] = ServerRegion(sid)
            layout.grow(sid, share)
        layout.check_invariants()
        return layout

    def copy(self) -> "IntervalLayout":
        """Deep copy (used to diff configurations for shed computation)."""
        dup = IntervalLayout(self.n_partitions)
        for sid, region in self._regions.items():
            dup._regions[sid] = ServerRegion(
                sid, list(region.full), tuple(region.partial) if region.partial else None
            )
        dup._owner = list(self._owner)
        return dup

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def server_ids(self) -> List[object]:
        """Ids of all servers in the layout (insertion order)."""
        return list(self._regions)

    @property
    def n_servers(self) -> int:
        """Number of servers in the layout."""
        return len(self._regions)

    def region(self, server_id: object) -> ServerRegion:
        """The :class:`ServerRegion` of ``server_id``."""
        try:
            return self._regions[server_id]
        except KeyError:
            raise UnknownServerError(f"no region for server {server_id!r}") from None

    def lengths(self) -> Dict[object, float]:
        """Mapped-region length of every server."""
        return {sid: r.length(self.n_partitions) for sid, r in self._regions.items()}

    @property
    def total_mapped(self) -> float:
        """Sum of all mapped-region lengths (0.5 in a complete layout)."""
        return sum(self.lengths().values())

    def free_partitions(self) -> List[int]:
        """Indices of completely free partitions, ascending."""
        return [p for p, owner in enumerate(self._owner) if owner is None]

    def owner_at(self, x: float) -> Optional[object]:
        """Server owning offset ``x`` in [0, 1), or ``None`` if unmapped.

        O(1): index the partition array, then a prefix test if the
        partition is the owner's partial one.
        """
        if not 0.0 <= x < 1.0:
            raise ValueError(f"offset {x!r} outside [0, 1)")
        p = min(int(x * self.n_partitions), self.n_partitions - 1)
        sid = self._owner[p]
        if sid is None:
            return None
        region = self._regions[sid]
        if region.partial is not None and region.partial[0] == p:
            # Prefix occupancy test within the partial partition. Uses
            # the same ``(p + fill) * width`` arithmetic as
            # :meth:`ServerRegion.segments`: the sum rounds before the
            # (exact, power-of-two) scaling, so testing the fraction
            # directly against ``fill`` can disagree with the published
            # segment endpoint at boundary offsets.
            end = (p + region.partial[1]) / self.n_partitions
            return sid if x < end else None
        return sid

    def segments(self) -> Dict[object, List[Tuple[float, float]]]:
        """Occupied real sub-intervals per server (the replicated state)."""
        return {sid: r.segments(self.n_partitions) for sid, r in self._regions.items()}

    def shared_state_entries(self) -> int:
        """Number of (server, segment) entries a node must replicate.

        This is the paper's shared-state metric for ANU: O(k) region
        descriptors, versus O(#VP) virtual-processor addresses or O(m)
        lookup-table rows.
        """
        return sum(len(segs) for segs in self.segments().values())

    # ------------------------------------------------------------------ #
    # growth / shrinkage primitives
    # ------------------------------------------------------------------ #
    def grow(self, server_id: object, delta: float) -> float:
        """Grow ``server_id``'s region by measure ``delta``.

        Fills the partial partition first; on reaching a full partition,
        claims the lowest-indexed free partition as the new partial.
        Returns the measure actually added (== ``delta`` unless the
        interval ran out of free partitions, which violates invariants
        upstream and raises).
        """
        region = self.region(server_id)
        if delta <= 0:
            return 0.0
        remaining = delta * self.n_partitions  # work in partition units
        while remaining > EPS:
            if region.partial is None:
                free = self._lowest_free_partition()
                if free is None:
                    raise InvariantViolation(
                        f"no free partition while growing {server_id!r}; "
                        "half-occupancy bookkeeping is broken"
                    )
                self._owner[free] = server_id
                region.partial = (free, 0.0)
            p, fill = region.partial
            take = min(remaining, 1.0 - fill)
            fill += take
            remaining -= take
            if fill >= 1.0 - EPS:
                region.full.append(p)
                region.partial = None
            else:
                region.partial = (p, fill)
        return delta

    def shrink(self, server_id: object, delta: float) -> float:
        """Shrink ``server_id``'s region by measure ``delta``.

        Trims the partial prefix first; when it empties, the partition is
        released to the free pool and the most recently acquired full
        partition is demoted to partial (LIFO — keeps the oldest, most
        cache-warm key space in place). Returns the measure actually
        removed (capped at the current region length).
        """
        region = self.region(server_id)
        if delta <= 0:
            return 0.0
        remaining = min(delta, region.length(self.n_partitions)) * self.n_partitions
        removed = remaining
        while remaining > EPS:
            if region.partial is None:
                if not region.full:
                    break
                p = region.full.pop()
                region.partial = (p, 1.0)
            p, fill = region.partial
            give = min(remaining, fill)
            fill -= give
            remaining -= give
            if fill <= EPS:
                region.partial = None
                self._owner[p] = None
            else:
                region.partial = (p, fill)
        return removed / self.n_partitions

    def _lowest_free_partition(self) -> Optional[int]:
        for p, owner in enumerate(self._owner):
            if owner is None:
                return p
        return None

    # ------------------------------------------------------------------ #
    # membership changes
    # ------------------------------------------------------------------ #
    def add_server(self, server_id: object) -> None:
        """Register a new server with an empty region.

        Re-partitions first if the new server count would exceed what
        the current partition count supports (Figure 3 of the paper).
        The caller then uses :meth:`shrink`/:meth:`grow` (normally via
        the layout engine) to give it measure.
        """
        if server_id in self._regions:
            raise InvariantViolation(f"server {server_id!r} already present")
        while self.n_partitions < required_partitions(len(self._regions) + 1):
            self.repartition()
        self._regions[server_id] = ServerRegion(server_id)

    def remove_server(self, server_id: object) -> float:
        """Remove a server, freeing its partitions.

        Returns the measure released. Used for both failure and
        decommissioning — "the framework treats commissioning or
        decommissioning servers the same as a recovery or failure" (§4).
        """
        region = self.region(server_id)
        released = region.length(self.n_partitions)
        for p in region.partitions():
            self._owner[p] = None
        del self._regions[server_id]
        return released

    def repartition(self) -> None:
        """Double the partition count without moving any load.

        Every full partition ``p`` becomes full partitions ``2p`` and
        ``2p + 1``. A partial ``(p, f)`` becomes ``full 2p`` plus
        ``partial (2p+1, 2f-1)`` when ``f >= 1/2``, else
        ``partial (2p, 2f)``. The occupied point set of every server is
        unchanged, so no file set moves and no cache is disturbed — this
        is what distinguishes ANU's re-partitioning from linear hashing.
        """
        new_p = self.n_partitions * 2
        new_owner: List[Optional[object]] = [None] * new_p
        for sid, region in self._regions.items():
            new_full = []
            for p in region.full:
                new_full.extend((2 * p, 2 * p + 1))
            new_partial: Optional[Tuple[int, float]] = None
            if region.partial is not None:
                p, fill = region.partial
                if fill >= 0.5:
                    new_full.append(2 * p)
                    rest = 2.0 * fill - 1.0
                    if rest > EPS:
                        new_partial = (2 * p + 1, rest)
                else:
                    new_partial = (2 * p, 2.0 * fill)
            region.full = new_full
            region.partial = new_partial
            for p in region.partitions():
                new_owner[p] = sid
        self.n_partitions = new_p
        self._owner = new_owner

    # ------------------------------------------------------------------ #
    # auditing
    # ------------------------------------------------------------------ #
    def check_invariants(self, complete: bool = True) -> None:
        """Audit structural invariants; raise :class:`InvariantViolation`.

        Parameters
        ----------
        complete:
            When ``True`` (a layout between tuning rounds) additionally
            require total mapped measure == 1/2 and at least one
            completely free partition.
        """
        seen: Dict[int, object] = {}
        for sid, region in self._regions.items():
            for p in region.partitions():
                if not 0 <= p < self.n_partitions:
                    raise InvariantViolation(f"partition {p} out of range for {sid!r}")
                if p in seen:
                    raise InvariantViolation(
                        f"partition {p} owned by both {seen[p]!r} and {sid!r}"
                    )
                seen[p] = sid
                if self._owner[p] != sid:
                    raise InvariantViolation(
                        f"owner index stale at partition {p}: "
                        f"{self._owner[p]!r} != {sid!r}"
                    )
            if region.partial is not None:
                fill = region.partial[1]
                if not (EPS < fill < 1.0 - EPS):
                    raise InvariantViolation(
                        f"partial fill {fill} of {sid!r} outside (0, 1)"
                    )
        for p, owner in enumerate(self._owner):
            if owner is not None and p not in seen:
                raise InvariantViolation(f"owner index claims {owner!r} at free partition {p}")
        if self._regions and self.n_partitions < required_partitions(len(self._regions)):
            raise InvariantViolation(
                f"{self.n_partitions} partitions insufficient for {len(self._regions)} servers"
            )
        if complete and self._regions:
            total = self.total_mapped
            if abs(total - HALF) > 1e-6:
                raise InvariantViolation(
                    f"half-occupancy violated: total mapped measure {total:.9f}"
                )
            if not self.free_partitions():
                raise InvariantViolation("no completely free partition available")

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return (
            f"<IntervalLayout P={self.n_partitions} servers={self.n_servers} "
            f"mapped={self.total_mapped:.4f}>"
        )


def region_difference(a: IntervalLayout, b: IntervalLayout) -> float:
    """Measure of the set of offsets whose owner differs between layouts.

    Computed exactly by sweeping the union of both layouts' breakpoints.
    Used by tests and the movement metrics to verify that region scaling
    moves only the marginal slices.
    """
    breakpoints = {0.0, 1.0}
    for layout in (a, b):
        for segs in layout.segments().values():
            for start, end in segs:
                breakpoints.add(start)
                breakpoints.add(end)
    pts = sorted(breakpoints)
    moved = 0.0
    for lo, hi in zip(pts, pts[1:]):
        if hi - lo <= EPS:
            continue
        mid = (lo + hi) / 2.0
        if a.owner_at(mid) != b.owner_at(mid):
            moved += hi - lo
    return moved


__all__.append("region_difference")
