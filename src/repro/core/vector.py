"""Array-backed kernels for the vectorized simulation path.

The scalar path resolves one name and drains one request at a time;
these kernels do the same work on whole batches so the engine's
vectorized client path (:mod:`repro.engine.vector_driver`) can advance
request cohorts per tuning interval instead of per event.

Three kernels, each a direct vectorization of an existing scalar
routine (and tested for agreement with it):

* :class:`SegmentTable` — an :class:`~repro.core.interval.IntervalLayout`
  flattened to sorted segment arrays; ``locate`` is
  :meth:`IntervalLayout.owner_at` over an offset batch via one
  ``searchsorted``.
* :class:`ProbeMatrix` — the memoized probe sequences of
  :class:`~repro.core.hashing.HashFamily`: offsets are pure in
  ``(seed, name, round)``, so each is hashed once, when the probe loop
  first reads it, and reused across every reconfiguration epoch — one
  dense round-0 column, a pooled row of deeper rounds per name, and
  one offset-sorted index over all of them for the epoch-delta scan.
* :func:`batched_locate` — the ANU re-hash loop ("re-hash until the
  offset lands in a mapped region") run round-by-round over the
  unresolved remainder of the batch.
* :func:`fifo_drain` — the FIFO service recurrence of every
  :class:`~repro.cluster.server.FileServer` queue, evaluated per server
  segment with a prefix-sum + running-max identity: short segments
  together in one padded 2-D pass, long ones one slice at a time.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, LookupExhaustedError
from .hashing import HashFamily
from .interval import IntervalLayout

__all__ = [
    "SegmentTable",
    "ProbeMatrix",
    "DrainedCohort",
    "batched_locate",
    "fifo_drain",
    "segment_delta",
    "run_bounds",
    "sorted_unique",
]


class SegmentTable:
    """A frozen array view of one layout epoch for batched ownership tests.

    The layout's mapped regions are flattened to disjoint, sorted
    ``[start, end)`` segments with an owner *slot* (an integer index
    into a fixed server order) per segment. Ownership of a batch of
    offsets is a grid lookup plus a short downward walk — O(1) per
    offset instead of the O(log k) binary search, which matters when a
    reconfiguration re-resolves a million names against the table.
    """

    __slots__ = ("starts", "ends", "owners", "n_servers", "_grid_shift", "_grid_hi")

    def __init__(
        self, starts: np.ndarray, ends: np.ndarray, owners: np.ndarray, n_servers: int
    ) -> None:
        self.starts = starts
        self.ends = ends
        self.owners = owners
        self.n_servers = int(n_servers)
        # Grid accelerator: 2^g cells over [0, 1), ~4 cells per segment.
        # Powers of two make the cell computation exact (offset * 2^g is
        # a pure exponent shift, so floor() never misclassifies a cell),
        # which keeps locate() bit-identical to the searchsorted form.
        g = max(8, int(max(1, starts.size * 4) - 1).bit_length())
        self._grid_shift = min(g, 16)
        cells = 1 << self._grid_shift
        if starts.size:
            edges = np.arange(1, cells + 1, dtype=np.float64) / cells
            # _grid_hi[c]: largest segment index whose start is < the
            # cell's right edge — an upper bound for every offset that
            # floors into cell c.
            self._grid_hi = np.searchsorted(starts, edges, side="left") - 1
        else:
            self._grid_hi = np.full(cells, -1, dtype=np.int64)

    @classmethod
    def from_layout(
        cls, layout: IntervalLayout, server_slots: Mapping[object, int]
    ) -> "SegmentTable":
        """Flatten ``layout`` using ``server_slots`` (server id -> slot)."""
        segs = []
        for sid, spans in layout.segments().items():
            slot = server_slots[sid]
            for start, end in spans:
                segs.append((start, end, slot))
        if not segs:
            empty = np.empty(0, dtype=np.float64)
            return cls(empty, empty, np.empty(0, dtype=np.int64), len(server_slots))
        segs.sort()
        arr = np.asarray(segs, dtype=np.float64)
        return cls(
            np.ascontiguousarray(arr[:, 0]),
            np.ascontiguousarray(arr[:, 1]),
            arr[:, 2].astype(np.int64),
            len(server_slots),
        )

    @classmethod
    def patched(
        cls,
        base: "SegmentTable",
        changed: Mapping[int, Sequence[Tuple[float, float]]],
    ) -> "SegmentTable":
        """A new table with the given slots' spans replaced — the
        incremental constructor for epoch-delta relocation.

        ``changed`` maps owner *slot* → its new ``[start, end)`` spans
        (an empty sequence evicts the slot from the table). Segments of
        untouched slots are carried over by a vectorized mask + merge
        insert into the sorted arrays, so building the new epoch's table
        costs O(changed segments + log) instead of re-flattening every
        server's region through the :meth:`from_layout` Python loop.

        The result is bit-identical to a :meth:`from_layout` rebuild of
        the same layout: spans are disjoint with nonzero length, so
        sorting by ``start`` alone reproduces the tuple-sort order
        (pinned by a hypothesis test).
        """
        if not changed:
            return base
        changed_slots = np.fromiter(changed, dtype=np.int64, count=len(changed))
        keep = ~np.isin(base.owners, changed_slots)
        kept_starts = base.starts[keep]
        kept_ends = base.ends[keep]
        kept_owners = base.owners[keep]
        add = sorted(
            (start, end, slot)
            for slot, spans in changed.items()
            for start, end in spans
        )
        if not add:
            return cls(kept_starts, kept_ends, kept_owners, base.n_servers)
        arr = np.asarray(add, dtype=np.float64)
        add_starts = np.ascontiguousarray(arr[:, 0])
        pos = np.searchsorted(kept_starts, add_starts, side="left")
        return cls(
            np.insert(kept_starts, pos, add_starts),
            np.insert(kept_ends, pos, np.ascontiguousarray(arr[:, 1])),
            np.insert(kept_owners, pos, arr[:, 2].astype(np.int64)),
            base.n_servers,
        )

    def locate(self, offsets: np.ndarray) -> np.ndarray:
        """Owner slot per offset; ``-1`` where the offset is unmapped.

        Matches :meth:`IntervalLayout.owner_at` exactly: an offset is
        owned when it falls in ``[start, end)`` of some segment. The
        grid gives ``idx <= _grid_hi[cell]`` and the walk lowers ``idx``
        until ``starts[idx] <= offset`` — the same index
        ``searchsorted(starts, offsets, 'right') - 1`` computes, found
        in O(cell occupancy) instead of O(log k).
        """
        if self.starts.size == 0:
            return np.full(offsets.shape, -1, dtype=np.int64)
        cells = (offsets * (1 << self._grid_shift)).astype(np.int64)
        idx = self._grid_hi[cells]
        # Walk down on the (quickly shrinking) subset whose candidate
        # segment starts past the offset. ~4 cells per segment means
        # almost everything settles in zero or one step.
        over = np.flatnonzero((idx >= 0) & (self.starts[np.maximum(idx, 0)] > offsets))
        while over.size:
            idx[over] -= 1
            sub = idx[over]
            over = over[(sub >= 0) & (self.starts[np.maximum(sub, 0)] > offsets[over])]
        clipped = np.maximum(idx, 0)
        hit = (idx >= 0) & (offsets < self.ends[clipped])
        return np.where(hit, self.owners[clipped], -1)


class _ProbeIndex(NamedTuple):
    """Read probes sorted by offset (parallel arrays; ``name_idx`` and
    ``rounds`` are int32 — at three entries per name the index is the
    largest structure of a placement, and both fit with room to spare)."""

    offsets: np.ndarray
    name_idx: np.ndarray
    rounds: np.ndarray


_NO_NAMES = np.empty(0, dtype=np.int32)
_EMPTY_INDEX = _ProbeIndex(np.empty(0, dtype=np.float64), _NO_NAMES, _NO_NAMES)
#: The recent run is merged into the probe index once it holds more
#: than 1/_MERGE_SHARE as many entries (amortizes the merge pass).
_MERGE_SHARE = 8


def _merged(base: _ProbeIndex, fresh: _ProbeIndex) -> _ProbeIndex:
    """Two offset-sorted runs as one (no re-sort of ``base``)."""
    if not base.offsets.size:
        return fresh
    at = np.searchsorted(base.offsets, fresh.offsets)
    return _ProbeIndex(*(np.insert(b, at, f) for b, f in zip(base, fresh)))


def run_bounds(keys: np.ndarray) -> np.ndarray:
    """Boundaries of the runs of equal adjacent values in a 1-D ``keys``.

    Run ``i`` is ``keys[b[i]:b[i + 1]]``, and ``b`` ends with
    ``len(keys)``: the array ``np.r_[np.flatnonzero(np.r_[True,
    keys[1:] != keys[:-1]]), len(keys)]``, without the per-call cost of
    ``np.r_``'s index tricks, which per-chunk callers pay thousands of
    times a run.
    """
    n = keys.shape[0]
    edge = np.empty(n + 1, dtype=bool)
    edge[0] = edge[n] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:n])
    return np.flatnonzero(edge)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D array, as a sort plus an adjacent compare.

    Same sorted values; but ``np.unique`` imports ``numpy.ma`` on its
    first call (9–16 ms cold), which the vector drive never needs.
    """
    ordered = np.sort(values)
    return ordered[run_bounds(ordered)[:-1]]


def _in_intervals(
    run: _ProbeIndex, starts: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(name_idx, rounds)`` of the entries of one sorted run inside
    the sorted, disjoint intervals ``[starts[i], ends[i])``."""
    lo = np.searchsorted(run.offsets, starts, side="left")
    counts = np.searchsorted(run.offsets, ends, side="left") - lo
    # Entry j of interval i sits at lo[i] + j: repeat each lo shifted
    # back by the counts before it, then add 0..total-1 — the ranges
    # lo[i]:lo[i]+counts[i] back to back, without a Python loop.
    hits = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    hits += np.arange(hits.size)
    return run.name_idx[hits], run.rounds[hits]


class ProbeMatrix:
    """Probe offsets ``h_r(name)`` of a fixed name list, hashed when first read.

    Every value is bit-identical to :meth:`HashFamily.offset` and pure in
    ``(seed, name, round)``, so an entry is hashed once (always through
    :meth:`HashFamily.batch_offsets`) and stays valid for every epoch.
    Only what the probe loop *reads* is hashed. Round 0 is read for
    every name and is one dense column. Deeper rounds are read in order
    until the name resolves, so what a name has hashed is always a
    prefix ``1..deep``; it sits in one contiguous row of a shared pool,
    and a row that fills up moves to the pool's end with twice the room.
    Reading is two gathers, growing writes in place, and memory follows
    the probes read — about two per name at half occupancy, the paper's
    "about two" hash evaluations — not ``8 * len(names)`` bytes for
    every round the deepest name reached.

    :meth:`index` is the same set of entries sorted by offset, the form
    the epoch-delta scan (:meth:`in_intervals`) needs.

    ``names`` is shared with the caller, not copied (a million-entry
    list at the big point); it must not change afterwards.
    """

    __slots__ = (
        "names", "family", "_columns", "_deep", "_base", "_pool", "_pool_used",
        "_index", "_recent", "_unindexed",
    )

    def __init__(self, names: Sequence[str], family: HashFamily) -> None:
        self.names = names
        self.family = family
        # round -> dense column. The probe loop only ever fills round 0;
        # deeper entries are there when a caller asked for the reference.
        self._columns: Dict[int, np.ndarray] = {}
        # Name i holds rounds 1.._deep[i] at _pool[_base[i]:][:_deep[i]],
        # in a row whose capacity is _deep[i] rounded up to a power of two.
        self._deep = np.zeros(len(names), dtype=np.int64)
        self._base = np.zeros(len(names), dtype=np.int64)
        self._pool = np.empty(0, dtype=np.float64)
        self._pool_used = 0
        # Read probes sorted by offset, in two runs: what index() last
        # merged, and the (few) entries hashed since; plus the batches
        # not yet sorted into the second.
        self._index: _ProbeIndex = _EMPTY_INDEX
        self._recent: _ProbeIndex = _EMPTY_INDEX
        self._unindexed: List[Tuple[np.ndarray, np.ndarray, int]] = []

    def __len__(self) -> int:
        return len(self.names)

    @property
    def rounds_materialized(self) -> int:
        """Rounds with at least one hashed entry."""
        deepest = int(self._deep.max(initial=0))
        return len(self._columns.keys() | set(range(1, deepest + 1)))

    def column(self, round_: int) -> np.ndarray:
        """Offsets of *every* name for probe ``round_`` (cached).

        The dense reference: the probe loop reads round 0 through it,
        oracles and tests read any round to check :meth:`offsets_at`
        against. A deeper dense column is never consulted by
        :meth:`offsets_at` and never enters :meth:`index`.
        """
        col = self._columns.get(round_)
        if col is None:
            col = self._columns[round_] = self.family.batch_offsets(
                self.names, round_
            )
            if round_ == 0:
                self._unindexed.append((col, np.arange(col.size, dtype=np.int32), 0))
        return col

    def offsets_at(self, name_idx: np.ndarray, round_: int) -> np.ndarray:
        """Offsets of the names ``name_idx`` for probe ``round_``.

        Entries not read before are hashed now and kept; the result is
        ``column(round_)[name_idx]`` bit for bit, for the price of the
        missing entries only.
        """
        if round_ == 0:
            return self.column(0)[name_idx]
        behind = self._deep[name_idx] < round_
        if behind.any():
            todo = name_idx[behind]
            if (todo[1:] <= todo[:-1]).any():
                # The probe loop asks in ascending order; anyone else
                # gets sorted and deduplicated first.
                todo = sorted_unique(todo)
            # The probe loop is one round behind at most; a caller that
            # skipped rounds has them filled in to keep rows prefixes.
            for r in range(int(self._deep[todo].min()) + 1, round_ + 1):
                self._hash_round(todo[self._deep[todo] == r - 1], r)
        return self._pool[self._base[name_idx] + (round_ - 1)]

    def _hash_round(self, name_idx: np.ndarray, round_: int) -> None:
        """Hash ``round_ == deep + 1`` for these (distinct) names."""
        held = round_ - 1
        if held & (held - 1) == 0:
            # Rows are full at 0, 1, 2, 4, 8, ... entries: move these to
            # the end of the pool, into rows of twice the capacity.
            room = max(1, 2 * held)
            need = self._pool_used + room * name_idx.size
            if need > self._pool.size:
                grown = np.empty(max(need, 2 * self._pool.size), dtype=np.float64)
                grown[: self._pool_used] = self._pool[: self._pool_used]
                self._pool = grown
            base = np.arange(self._pool_used, need, room)
            if held:
                row = np.arange(held)
                self._pool[base[:, None] + row] = self._pool[
                    self._base[name_idx][:, None] + row
                ]
            self._base[name_idx] = base
            self._pool_used = need
        names = self.names
        hashed = self.family.batch_offsets([names[i] for i in name_idx.tolist()], round_)
        self._pool[self._base[name_idx] + held] = hashed
        self._deep[name_idx] = round_
        self._unindexed.append((hashed, name_idx.astype(np.int32), round_))

    def _sort_in_unindexed(self) -> None:
        """Fold the batches hashed since the last call into ``_recent``."""
        if self._unindexed:
            offsets, name_idx, rounds = zip(*self._unindexed)
            self._unindexed = []
            batch = _ProbeIndex(
                np.concatenate(offsets),
                np.concatenate(name_idx),
                np.repeat(np.array(rounds, dtype=np.int32), [part.size for part in offsets]),
            )
            # Entries with equal offsets may land in either order; every
            # reader of the index takes sets of entries, never positions.
            order = np.argsort(batch.offsets)
            self._recent = _merged(self._recent, _ProbeIndex(*(a[order] for a in batch)))

    def index(self) -> _ProbeIndex:
        """Every probe read so far as ``(offsets, name_idx, rounds)``,
        sorted by offset.

        New entries are sorted among themselves and merged in
        (``searchsorted`` + ``insert``); the index as a whole is never
        re-sorted.
        """
        self._sort_in_unindexed()
        if self._recent.offsets.size:
            self._index = _merged(self._index, self._recent)
            self._recent = _EMPTY_INDEX
        return self._index

    def in_intervals(
        self, starts: np.ndarray, ends: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(name_idx, rounds)`` of every read probe whose offset lies in
        one of the sorted, disjoint intervals ``[starts[i], ends[i])``.

        Work is proportional to the probes inside the intervals, not to
        the catalog. A merge into the index is a pass over all of it,
        so what was hashed since :meth:`index` last ran waits in a
        second, small sorted run that is scanned the same way, until it
        is a share of the index worth that pass.
        """
        self._sort_in_unindexed()
        if self._recent.offsets.size * _MERGE_SHARE > self._index.offsets.size:
            self.index()
        name_idx, rounds = zip(
            *(_in_intervals(run, starts, ends) for run in (self._index, self._recent))
        )
        return np.concatenate(name_idx), np.concatenate(rounds)

    def sorted_column(self, round_: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(sorted offsets, their name indices)`` of the round-``round_``
        probes read so far — one round's slice of :meth:`index`."""
        offsets, name_idx, rounds = self.index()
        keep = rounds == round_
        return offsets[keep], name_idx[keep]


def batched_locate(
    probes: ProbeMatrix,
    table: SegmentTable,
    blocked: Optional[np.ndarray] = None,
    subset: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Resolve every name in ``probes`` against ``table``.

    Runs the ANU probe loop breadth-first: round ``r`` re-hashes only
    the names still unresolved after rounds ``< r``. Returns
    ``(owner_slot, probes_used)`` arrays (``probes_used`` counts hash
    evaluations, 1-based, matching ``ANUManager.lookup``'s accounting).

    ``blocked`` is an optional boolean mask over server slots: a probe
    landing in a blocked slot's region is treated as unmapped and the
    name continues to the next round — the alive-mask guarantee of the
    chaos path ("never route to a dead server"), enforced in the
    kernel regardless of whether the layout was already updated.

    ``subset`` restricts resolution to the given name indices (the
    epoch-delta relocation path re-resolves only invalidated names);
    the returned arrays then align with ``subset`` — ``owner[j]`` is
    the resolution of name ``subset[j]``. Resolution of a name depends
    only on its own probe sequence, so a subset resolution is
    bit-identical to the corresponding entries of a full one.

    Raises :class:`LookupExhaustedError` if any name exhausts the
    family's probe budget — same failure mode as the scalar lookup.
    """
    if subset is None:
        n = len(probes)
        idx = None
    else:
        idx = np.asarray(subset, dtype=np.int64)
        n = idx.size
    owner = np.full(n, -1, dtype=np.int64)
    used = np.zeros(n, dtype=np.int64)
    if n == 0:
        return owner, used
    if blocked is not None and not blocked.any():
        blocked = None
    unresolved = np.arange(n)
    for round_ in range(probes.family.max_probes):
        gather = unresolved if idx is None else idx[unresolved]
        slots = table.locate(probes.offsets_at(gather, round_))
        hit = slots >= 0
        if blocked is not None:
            hit &= ~blocked[np.maximum(slots, 0)]
        hit_idx = unresolved[hit]
        owner[hit_idx] = slots[hit]
        used[hit_idx] = round_ + 1
        unresolved = unresolved[~hit]
        if unresolved.size == 0:
            return owner, used
    raise LookupExhaustedError(
        f"{unresolved.size} of {n} names found no mapped region in "
        f"{probes.family.max_probes} probes"
    )


class DrainedCohort(NamedTuple):
    """One cohort's drain result, grouped by server slot.

    All five arrays are in the grouped order: requests of slot
    ``server[bounds[i]]`` occupy positions ``bounds[i]:bounds[i+1]``,
    FIFO (arrival) order within each group. ``order`` maps grouped
    position → input index, so input order is recovered with
    ``out[order] = grouped``.
    """

    order: np.ndarray
    bounds: np.ndarray
    server: np.ndarray
    arrival: np.ndarray
    service: np.ndarray
    completion: np.ndarray

    def completion_in_input_order(self) -> np.ndarray:
        out = np.empty(self.completion.shape[0], dtype=np.float64)
        out[self.order] = self.completion
        return out


#: Server segments shorter than this drain together in one padded 2-D
#: pass; longer ones keep the per-segment loop. A loop iteration costs
#: ~7 µs of NumPy call overhead whatever the segment's length, while a
#: padded row costs ~0.5 µs plus ~40 ns per column of the block's
#: width (2-vCPU Xeon VM, NumPy 2.4). A row padded to the full cut
#: therefore still costs under half a loop iteration, and mixed cohorts
#: (chaos cohorts average ~19 requests per segment) drain fastest at
#: this cut; wider, the padding of the shortest rows outweighs the loop
#: it saves. The cut also bounds the block at ``segments x 64`` floats.
_PADDED_CUT = 64


def fifo_drain(
    arrival: np.ndarray,
    service: np.ndarray,
    server_idx: np.ndarray,
    free_at: np.ndarray,
    *,
    power: Optional[np.ndarray] = None,
) -> DrainedCohort:
    """Completion times for a cohort of requests across FIFO servers.

    Vectorizes the per-server recurrence
    ``completion_i = max(arrival_i, completion_{i-1}) + service_i``
    using the identity ``c_i = P_i + max_{j<=i}(a_j - P_{j-1})`` over
    each server's segment, where ``P`` is the prefix sum of service
    times within the segment.

    Segments shorter than ``_PADDED_CUT`` are laid out as the rows of
    one ``(segments, width)`` block, zero-padded past each row's end,
    and the recurrence runs once over the block along ``axis=1``;
    longer segments run it one cache-hot slice at a time. Both
    accumulations (prefix sum, running max) are sequential along a row
    and padding only follows a row's last element, so the two layouts
    produce the same bits — the split is a speed choice only.

    Parameters
    ----------
    arrival:
        Request arrival times, nondecreasing (the cohort is drained in
        schedule order, like the scalar driver submits it).
    service:
        Per-request service time (work / server power) — or raw work
        when ``power`` is given.
    server_idx:
        Assigned server slot per request.
    free_at:
        Per-slot time the server's queue drains empty. **Mutated in
        place** so consecutive cohorts chain their backlogs.
    power:
        Optional per-slot processing power. When given, ``service`` is
        raw work and each request's service time is
        ``work / power[slot]``, divided in place *after* the grouping
        gather — the division is per segment (power is constant within
        a segment), so no full-size temporaries are materialized. The
        quotients are bit-identical to dividing up front.

    Returns
    -------
    A :class:`DrainedCohort` — results stay grouped by server so the
    caller can flush per-server batches without re-sorting.
    """
    n = arrival.shape[0]
    if n == 0:
        empty = np.empty(0, dtype=np.float64)
        idx = np.empty(0, dtype=np.int64)
        return DrainedCohort(idx, np.zeros(1, dtype=np.int64), idx, empty, empty, empty)
    if n != service.shape[0] or n != server_idx.shape[0]:
        raise ConfigurationError(
            f"cohort arrays disagree: {n}, {service.shape[0]}, {server_idx.shape[0]}"
        )
    # Stable sort groups each server's requests while preserving the
    # FIFO (arrival) order within the group — exactly the order the
    # scalar driver fills each server's queue. Narrowing the key dtype
    # matters: NumPy's stable integer sort is a radix sort, and int16
    # keys take a quarter of the passes of int64 (7x on 2M elements).
    key = server_idx
    if free_at.shape[0] <= np.iinfo(np.int16).max and key.dtype != np.int16:
        key = key.astype(np.int16)
    order = np.argsort(key, kind="stable")
    srv = key[order]
    arr = arrival[order]
    svc = service[order]
    bounds = run_bounds(srv)
    seg_start = bounds[:-1]
    heads = srv[seg_start]
    lengths = np.diff(bounds)
    completion = np.empty(n, dtype=np.float64)
    short = lengths < _PADDED_CUT
    if short.any():
        _drain_padded(
            arr, svc, completion, seg_start[short], lengths[short],
            heads[short], free_at, power,
        )
    long_ = np.flatnonzero(~short)
    if long_.size:
        # Long segments run segment-fused: every pass (division, prefix
        # sum, slack, running max, final add) operates on one server's
        # slice while it is still cache-hot, instead of streaming
        # multi-megabyte cohort arrays through each pass in turn.
        # Segment count is bounded by the server count, so the Python
        # loop is O(k); the prefix-sum buffer is its one allocation.
        cum = np.empty(n, dtype=np.float64)
        for i in long_.tolist():
            lo, hi = bounds[i], bounds[i + 1]
            head = heads[i]
            s = svc[lo:hi]
            if power is not None:
                np.divide(s, power[head], out=s)
            p = cum[lo:hi]
            np.cumsum(s, out=p)  # P_i within the segment
            b = completion[lo:hi]
            np.subtract(p, s, out=b)  # P_{i-1}
            np.subtract(arr[lo:hi], b, out=b)  # slack a_i - P_{i-1}
            if b[0] < free_at[head]:
                b[0] = free_at[head]
            np.maximum.accumulate(b, out=b)
            np.add(p, b, out=b)  # completion P_i + max slack
            free_at[head] = b[-1]
    return DrainedCohort(order, bounds, srv, arr, svc, completion)


def _drain_padded(
    arr: np.ndarray,
    svc: np.ndarray,
    completion: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    heads: np.ndarray,
    free_at: np.ndarray,
    power: Optional[np.ndarray],
) -> None:
    """The segment recurrence over short segments, one row each.

    Same float operations in the same order as the per-segment loop of
    :func:`fifo_drain`, on a ``(segments, width)`` block: service and
    arrival pad with zeros past each row's end, which leaves every
    real element's prefix sum and running max untouched.
    """
    col = np.arange(int(lengths.max()))
    real = col < lengths[:, None]
    at = (starts[:, None] + col)[real]  # grouped positions, row-major
    s_real = svc[at]
    if power is not None:
        s_real /= np.repeat(power[heads], lengths)
        svc[at] = s_real
    s = np.zeros(real.shape, dtype=np.float64)
    s[real] = s_real
    b = np.zeros(real.shape, dtype=np.float64)
    b[real] = arr[at]
    p = np.cumsum(s, axis=1)  # P_i within each row
    np.subtract(p, s, out=s)  # P_{i-1}
    np.subtract(b, s, out=b)  # slack a_i - P_{i-1}
    first = b[:, 0]
    seed = free_at[heads]
    b[:, 0] = np.where(first < seed, seed, first)
    np.maximum.accumulate(b, axis=1, out=b)
    np.add(p, b, out=b)  # completion P_i + max slack
    completion[at] = b[real]
    free_at[heads] = b[np.arange(heads.size), lengths - 1]


def segment_delta(
    old: SegmentTable,
    new: SegmentTable,
    old_blocked: Optional[np.ndarray] = None,
    new_blocked: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Intervals of [0, 1) whose *effective* owner differs between epochs.

    The effective owner of an offset is its segment's owner slot with
    the epoch's blocked mask applied (a blocked owner counts as
    unmapped, ``-1``) — exactly what :func:`batched_locate` sees. The
    returned ``(starts, ends)`` arrays are the merged, sorted, disjoint
    intervals where old and new disagree; a name resolution can only be
    invalidated by the epoch change if one of its probe offsets at
    rounds ``<= used`` lands inside one of them:

    * at the resolving round, a delta hit means the owner changed or
      the region shrank/was blocked from under the name;
    * at any earlier round the old effective owner was ``-1`` (that is
      why probing continued), so a delta hit there means the offset is
      newly mapped — a *grown* region — and the name may now resolve
      earlier.

    Computed exactly by sweeping the union of both tables' segment
    endpoints: within each elementary interval both tables are
    constant, so locating the left endpoints (vectorized) classifies
    the whole interval. O(total segments) per reconfiguration — the
    tables are O(servers), not O(names).
    """
    pts = sorted_unique(
        np.concatenate((old.starts, old.ends, new.starts, new.ends, [0.0]))
    )
    lefts = pts[pts < 1.0]
    rights = np.append(lefts[1:], 1.0)
    old_eff = old.locate(lefts)
    new_eff = new.locate(lefts)
    if old_blocked is not None and old_blocked.any():
        old_eff = np.where(old_blocked[np.maximum(old_eff, 0)] & (old_eff >= 0), -1, old_eff)
    if new_blocked is not None and new_blocked.any():
        new_eff = np.where(new_blocked[np.maximum(new_eff, 0)] & (new_eff >= 0), -1, new_eff)
    diff = old_eff != new_eff
    if not diff.any():
        empty = np.empty(0, dtype=np.float64)
        return empty, empty.copy()
    run_start = diff.copy()
    run_start[1:] &= ~diff[:-1]
    run_end = diff.copy()
    run_end[:-1] &= ~diff[1:]
    return lefts[run_start], rights[run_end]
