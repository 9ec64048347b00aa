"""The vectorized client path: whole-cohort request drains.

:class:`VectorizedClientPath` is a drop-in
:class:`~repro.engine.client_path.ClientPath` — same engine, same
control plane, same tuning loop, same result record — whose driver
advances one *tuning interval of requests* per simulation event instead
of one request. Each wake it:

1. refreshes the policy's file-set → server assignment (array-valued
   when the policy provides :meth:`assignment_vector`, else via scalar
   ``locate`` calls);
2. slices the workload's columnar arrays for arrivals in ``[t0, t1)``
   and computes every completion time with the
   :func:`~repro.core.vector.fifo_drain` recurrence (short server
   segments in one padded pass, long ones one slice at a time);
3. flushes completions that fall *inside* closed windows into each
   server's interval accumulators — strictly before the tuner's
   ``interval_report`` runs at the same instant, preserving the scalar
   path's measurement windows. Each flushed chunk is reduced per server
   with ``reduceat`` and lands in one vectorized merge across every
   server it touches (:func:`~repro.cluster.server.land_moments`), so
   neither the drain nor the landing makes a Python call per (server,
   cohort).

The driver wakes before the tuner at every boundary by construction:
the engine builds the client path first, so the driver's wake always
carries the earlier sequence number.

Scope (validated at run start, loud errors otherwise):

* cache effects disabled (``CacheConfig.enabled`` false) — cohort
  service times are state-free;
* :class:`~repro.engine.control.DirectControlPlane`, and either
  :class:`~repro.engine.fault_layer.NullFaultLayer` (no faults) or
  :class:`~repro.engine.vector_faults.VectorChaosFaultLayer` — the
  latter hands the driver a compiled fault timeline, and the drive
  loop splits each tuning interval at every timeline event: drain up
  to the event, apply it (mask/rate mutations, policy churn, orphan
  re-drive), continue. Faults the scalar path discovers reactively
  are replayed deterministically here;
* no per-request probes (``RequestCompleted`` subscribers);
* per-server tallies do not retain raw samples (the driver lands every
  flushed latency in one column sized to the workload and hands that
  column to the result), so per-server percentile/SLA metrics are
  unavailable — aggregate latencies and per-server streaming moments
  are unaffected.

Aggregate metrics agree with the scalar driver to float rounding; see
``tests/engine/test_vector_equivalence.py`` for the documented
tolerances.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import ConfigurationError
from ..core.vector import fifo_drain, run_bounds
from .client_path import ClientPath
from .probes import RequestCompleted

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ClusterEngine

__all__ = ["VectorizedClientPath", "VectorizedRequestDriver"]


class VectorizedRequestDriver:
    """Drains whole request cohorts through array-backed FIFO servers."""

    def __init__(self, engine: "ClusterEngine") -> None:
        workload = engine.workload
        for attr in ("_arrivals", "_works", "_fs_idx"):
            if not hasattr(workload, attr):
                raise ConfigurationError(
                    f"workload {workload!r} lacks columnar array {attr!r}; "
                    "the vectorized client path needs array-backed workloads"
                )
        self.engine = engine
        self.env = engine.env
        self._arrivals: np.ndarray = workload._arrivals
        self._works: np.ndarray = workload._works
        self._fs_idx: np.ndarray = workload._fs_idx
        # The columnar generators already emit int32; only the synthetic
        # Workload's int64 column is narrowed (once per cell) so the
        # per-cohort gathers move half the bytes.
        if self._fs_idx.dtype.itemsize > 4 and len(workload.catalog) < 2**31:
            self._fs_idx = self._fs_idx.astype(np.int32)
        # Read-only (the locate fallback of _assignment): shared, not copied.
        names = getattr(workload, "_fs_names", None)
        self._names: Sequence[str] = (
            names if names is not None else workload.catalog.names
        )
        # Fixed slot order: the config's server insertion order, same
        # order the engine builds FileServers in.
        server_ids = list(engine.config.server_powers)
        self._slots: Dict[object, int] = {sid: i for i, sid in enumerate(server_ids)}
        self._servers = [engine.servers[sid] for sid in server_ids]
        self._powers = np.array(
            [engine.config.server_powers[sid] for sid in server_ids], dtype=np.float64
        )
        #: Absolute time each server's queue drains empty.
        self._free_at = np.zeros(len(server_ids), dtype=np.float64)
        # Flushed latencies land in one column the driver hands to the
        # result (collected_latencies); per-server tally buffers would
        # copy every latency a second time and regrow along the way.
        # Per-server raw samples are therefore unavailable on this path
        # — streaming per-server moments are kept as always.
        for server in self._servers:
            server.completed.forget_samples()
        # A request lands at most once (a re-driven orphan is the same
        # request), so one slot per arrival is enough and the column
        # never grows.
        self._column: Optional[np.ndarray] = np.empty(
            self._arrivals.shape[0], dtype=np.float64
        )
        self._landed = 0
        # Computed-but-unflushed completions: (server slot, completion,
        # latency, service) column tuples.
        self._pending: List[Tuple[np.ndarray, ...]] = []
        # Narrow-dtype view of the current assignment vector, memoized
        # on the source array (policies cache theirs per epoch).
        self._assign_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._cursor = 0
        self._submitted = 0
        #: Chaos-mode state (None / empty on the fault-free path). The
        #: orphan pool holds per-slot ``(arrival, work, fileset)``
        #: column triples awaiting re-location after a crash; the
        #: discard counter classifies still-queued-at-horizon requests.
        self._chaos = None
        self._orphans: Dict[int, List[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
        self._orphan_total = 0
        self._discarded = 0
        #: Index of the next compiled timeline event to apply.
        self._next_event = 0
        #: Compat with the scalar driver surface (no hardened client).
        self.client = None
        # The start hop runs _validate after every layer is attached.
        engine.env.schedule_at(engine.env.now, self._start)

    # ------------------------------------------------------------------ #
    @property
    def submitted(self) -> int:
        """Requests handed to servers so far."""
        return self._submitted

    @property
    def landed(self) -> int:
        """Requests whose completion has been flushed (latency landed)."""
        return self._landed

    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        """Check the engine assembly fits the vectorized path's scope.

        Runs from the start hop (t=0), after every layer is attached.
        """
        from .control import DirectControlPlane
        from .fault_layer import NullFaultLayer

        engine = self.engine
        if engine.cache.config.enabled:
            raise ConfigurationError(
                "vectorized client path requires cache effects disabled "
                "(CacheConfig(flush_work_scale=0, cold_factor=1.0) or "
                "warmup_time=0); got "
                f"{engine.cache.config!r}"
            )
        if not isinstance(engine.control, DirectControlPlane):
            raise ConfigurationError(
                "vectorized client path requires DirectControlPlane, got "
                f"{type(engine.control).__name__}"
            )
        if type(engine.faults) is not NullFaultLayer and engine.faults is not self._chaos:
            # VectorChaosFaultLayer registers itself via attach_chaos
            # during assembly; anything else (notably the scalar
            # ChaosFaultLayer) is out of scope.
            raise ConfigurationError(
                "vectorized client path requires NullFaultLayer or "
                "VectorChaosFaultLayer, got "
                f"{type(engine.faults).__name__}"
            )
        if engine.bus.wants(RequestCompleted):
            raise ConfigurationError(
                "vectorized client path does not publish per-request "
                "RequestCompleted probes; detach the subscriber or use "
                "BasicClientPath"
            )

    def _start(self) -> None:
        self._validate()
        self._arm(self.env.now)

    def _arm(self, t0: float) -> None:
        """Schedule the wake that drains the window starting at ``t0``."""
        duration = self.engine.workload.duration
        if t0 < duration:
            t1 = min(t0 + self.engine.config.tuning_interval, duration)
            env = self.env
            env.schedule_at(env.now + (t1 - t0), lambda: self._wake(t1))

    def _wake(self, t1: float) -> None:
        """Drain the window ending at ``t1``, then arm the next one."""
        chaos = self._chaos
        if chaos is not None:
            # Timeline events split the interval into piecewise drains:
            # completions are computed analytically, so draining the
            # sub-windows at the boundary wake is equivalent to waking
            # at each event — without paying a kernel event per fault.
            events = chaos.timeline.events
            while self._next_event < len(events) and events[self._next_event].time <= t1:
                event = events[self._next_event]
                self._next_event += 1
                self._drain(event.time)
                chaos.apply_event(event)
        self._drain(t1)
        final = t1 >= self.engine.workload.duration
        self._flush(t1, final=final)
        if chaos is not None:
            chaos.sweep("boundary", t1, final=final)
        self._arm(t1)

    # ------------------------------------------------------------------ #
    def _assignment(self) -> np.ndarray:
        """File-set → server-slot vector under the current placement."""
        policy = self.engine.policy
        vector_fn = getattr(policy, "assignment_vector", None)
        if vector_fn is not None:
            assign = vector_fn(self._slots)
        else:
            slots = self._slots
            locate = policy.locate
            assign = np.fromiter(
                (slots[locate(name)] for name in self._names),
                dtype=np.int64,
                count=len(self._names),
            )
        # Gathering int16 slots moves a quarter of the bytes of int64
        # (and hands fifo_drain its radix-sort key for free).
        if assign.dtype != np.int16 and self._free_at.shape[0] <= np.iinfo(np.int16).max:
            cache = self._assign_cache
            if cache is not None and cache[0] is assign:
                return cache[1]
            narrow = assign.astype(np.int16)
            self._assign_cache = (assign, narrow)
            return narrow
        return assign

    def _drain(self, t1: float) -> None:
        """Route and queue the cohort of arrivals in ``[t0, t1)``."""
        lo = self._cursor
        hi = int(np.searchsorted(self._arrivals, t1, side="left"))
        self._cursor = hi
        if hi == lo:
            return
        assign = self._assignment()
        fs = self._fs_idx[lo:hi]
        srv = assign[fs]
        self._submitted += hi - lo
        if self._chaos is None:
            cohort = fifo_drain(
                self._arrivals[lo:hi],
                self._works[lo:hi],
                srv,
                self._free_at,
                power=self._powers,
            )
            # Latency overwrites the cohort's arrival buffer (fifo_drain
            # hands us freshly gathered copies, and arrivals are not
            # needed past this point).
            latency = np.subtract(
                cohort.completion, cohort.arrival, out=cohort.arrival
            )
            # Pending chunks stay grouped by server (fifo_drain's
            # order), so flushes never re-sort — they just segment-scan
            # each chunk.
            self._pending.append(
                (cohort.server, cohort.completion, latency, cohort.service)
            )
            return
        arrivals = self._arrivals[lo:hi]
        works = self._works[lo:hi]
        dead = ~self._chaos.alive[srv]
        if dead.any():
            # Arrivals routed to a crashed-but-undetected slot wait in
            # the orphan pool until a reconfiguration re-locates them.
            for s in np.flatnonzero(np.bincount(srv[dead])):
                sel = dead & (srv == s)
                self._stash(int(s), arrivals[sel], works[sel], fs[sel])
            keep = ~dead
            if not keep.any():
                return
            arrivals = arrivals[keep]
            works = works[keep]
            srv = srv[keep]
            fs = fs[keep]
        self._queue_cohort(arrivals, works, srv, fs)

    # ------------------------------------------------------------------ #
    # chaos-mode surface (used by VectorChaosFaultLayer)
    # ------------------------------------------------------------------ #
    def attach_chaos(self, layer) -> None:
        """Register the vectorized fault layer (engine assembly time)."""
        self._chaos = layer

    def orphan_count(self) -> int:
        """Requests parked in the orphan pool awaiting re-location."""
        return self._orphan_total

    def reset_free_at(self, slot: int, t: float) -> None:
        """A recovered server restarts with an empty queue at ``t``."""
        if self._free_at[slot] < t:
            self._free_at[slot] = t

    def _stash(
        self, slot: int, arr0: np.ndarray, work: np.ndarray, fs: np.ndarray
    ) -> None:
        self._orphans.setdefault(slot, []).append((arr0, work, fs))
        self._orphan_total += int(arr0.size)

    def _queue_cohort(
        self,
        arrivals: np.ndarray,
        works: np.ndarray,
        srv: np.ndarray,
        fs: np.ndarray,
        arr0: Optional[np.ndarray] = None,
    ) -> None:
        """Drain one chaos-mode cohort into a 7-column pending chunk.

        Chaos chunks carry ``(fileset, work, original arrival)`` columns
        past the fault-free four so a later crash can re-orphan any
        queued entry with everything re-drive needs. ``arr0`` overrides
        the latency baseline for re-driven orphans: they enter the
        queue *now* but their measured latency spans the whole outage.
        """
        chaos = self._chaos
        cohort = fifo_drain(
            arrivals, works, srv, self._free_at,
            power=chaos.effective_powers(self._powers),
        )
        order = cohort.order
        arr0_g = cohort.arrival if arr0 is None else arr0[order]
        latency = cohort.completion - arr0_g
        self._pending.append(
            (
                cohort.server,
                cohort.completion,
                latency,
                cohort.service,
                fs[order],
                works[order],
                arr0_g,
            )
        )

    def orphan_extract(self, slot: int, t: float) -> int:
        """Pull ``slot``'s queued-but-unfinished work into the pool.

        Called at a crash instant: completions strictly after ``t`` on
        the victim die with its queue. Returns the extraction count
        (the scalar ledger's ``timeouts`` analogue) and resets the
        victim's backlog clock.
        """
        extracted = 0
        rebuilt = []
        for chunk in self._pending:
            sel = (chunk[0] == slot) & (chunk[1] > t)
            if not sel.any():
                rebuilt.append(chunk)
                continue
            self._stash(slot, chunk[6][sel], chunk[5][sel], chunk[4][sel])
            extracted += int(sel.sum())
            keep = ~sel
            if keep.any():
                rebuilt.append(tuple(col[keep] for col in chunk))
        self._pending = rebuilt
        self._free_at[slot] = t
        return extracted

    def redrive_orphans(self, slot: int, t: float) -> Tuple[int, int]:
        """Re-locate ``slot``'s orphan pool through the current layout.

        Returns ``(redriven, redirected)``: every popped orphan counts
        as a retry; landing on a different server than the one it died
        on is a redirect. Orphans whose new target is *also* dead (a
        concurrent undetected crash) go back to the pool under the new
        slot — conservation holds throughout.
        """
        stash = self._orphans.pop(slot, None)
        if not stash:
            return 0, 0
        arr0 = np.concatenate([c[0] for c in stash])
        work = np.concatenate([c[1] for c in stash])
        fs = np.concatenate([c[2] for c in stash])
        redriven = int(arr0.size)
        self._orphan_total -= redriven
        assign = self._assignment()
        srv = assign[fs]
        dead = ~self._chaos.alive[srv]
        if dead.any():
            for s in np.flatnonzero(np.bincount(srv[dead])):
                sel = dead & (srv == s)
                self._stash(int(s), arr0[sel], work[sel], fs[sel])
            keep = ~dead
            if not keep.any():
                return redriven, 0
            arr0 = arr0[keep]
            work = work[keep]
            srv = srv[keep]
            fs = fs[keep]
        redirected = int(np.count_nonzero(srv != slot))
        now = np.full(arr0.size, t, dtype=np.float64)
        self._queue_cohort(now, work, srv, fs, arr0=arr0)
        return redriven, redirected

    def _flush(self, t1: float, final: bool) -> None:
        """Land completions due by ``t1`` in the server accumulators.

        Boundary flushes take completions strictly before ``t1``: in
        the scalar path a completion at exactly the boundary is a
        timeout created mid-interval, which sorts after the tuner's
        (created at the previous boundary) and lands in the next
        window. The final flush is inclusive — the kernel processes
        events at exactly the horizon — and discards everything later
        (still in queue at the deadline, same as the scalar run).

        Chunks are processed oldest-first: every chunk is grouped by
        server with FIFO order inside each group, and a server's
        earlier-cohort requests always complete before its later ones,
        so per-server observation order matches the scalar event order
        without any sorting here. Masking with ``due`` preserves the
        grouping (it drops elements, never reorders them).
        """
        from ..cluster.server import land_moments  # deferred: engine layering

        column = self._column
        if column is None:
            raise RuntimeError(
                "the vectorized run's latencies were handed to its result; "
                "build a new engine instead of continuing this run"
            )
        if not self._pending:
            return
        chunks = self._pending
        self._pending = []
        batches = []
        for chunk in chunks:
            srv, completion, latency, service = chunk[:4]
            due = completion <= t1 if final else completion < t1
            if not due.all():
                if not final:
                    keep = ~due
                    self._pending.append(tuple(col[keep] for col in chunk))
                else:
                    # Still queued at the deadline, same as the scalar
                    # run — counted so the chaos conservation ledger
                    # classifies rather than loses them.
                    self._discarded += int(np.count_nonzero(~due))
                if not due.any():
                    continue
                # Landing reads three columns; the rest of a landed
                # chunk (completions, re-drive columns) is dead.
                srv, latency, service = srv[due], latency[due], service[due]
            end = self._landed + latency.size
            if end > column.size:
                raise RuntimeError(
                    f"{end} latencies landed for {column.size} arrivals: "
                    "a request completed twice"
                )
            column[self._landed:end] = latency
            self._landed = end
            bounds = run_bounds(srv)
            seg_start = bounds[:-1]
            # Per-server batch statistics in a handful of vectorized
            # passes; land_moments then merges every server's share of
            # every chunk without a Python call per (chunk, server).
            count = np.diff(bounds)
            lat_sum = np.add.reduceat(latency, seg_start)
            svc_sum = np.add.reduceat(service, seg_start)
            lat_min = np.minimum.reduceat(latency, seg_start)
            lat_max = np.maximum.reduceat(latency, seg_start)
            # The service buffer is dead after svc_sum (chunks are
            # popped or freshly masked), so reuse it for the squares.
            np.multiply(latency, latency, out=service)
            sq_sum = np.add.reduceat(service, seg_start)
            mean = lat_sum / count
            m2 = sq_sum - count * mean * mean
            # Rounding can push the difference negative.
            m2 = np.where(m2 < 0.0, 0.0, m2)
            batches.append(
                (srv[seg_start], count, lat_sum, m2, lat_min, lat_max, svc_sum)
            )
        land_moments(self._servers, batches)

    def collected_latencies(self) -> np.ndarray:
        """Hand the latency of every flushed request over to the result.

        The engine calls this once, at result-assembly time. It returns
        the landed prefix of the driver's column (a view, no copy) and
        drops the driver's own reference, so the result is the column's
        only owner: a finished engine is cyclic garbage that may outlive
        its result, and it must not keep a request-sized array alive.
        The run cannot continue afterwards — a later flush raises.
        Order is flush order (by completion window), not the scalar
        path's per-server order; aggregate statistics do not depend on
        it.
        """
        column = self._column
        if column is None:
            raise RuntimeError(
                "the vectorized run's latencies were already handed to its result"
            )
        self._column = None
        return column[: self._landed]


class VectorizedClientPath(ClientPath):
    """Client-path layer that assembles a :class:`VectorizedRequestDriver`."""

    def build(self, engine: "ClusterEngine") -> VectorizedRequestDriver:
        return VectorizedRequestDriver(engine)
