"""Heterogeneous file servers with FIFO queueing.

Each :class:`FileServer` models one metadata server: a single service
station draining a FIFO queue (the paper's "servers use a first-in-
first-out queuing discipline", §5.1) at a rate set by its *processing
power* — "if the least powerful server consumes time T to complete a
metadata request, then the most powerful server consumes time T/9"
(§5.1). The evaluation cluster uses powers {1, 3, 5, 7, 9}.

Servers measure themselves: per-interval mean latency of completed
requests (what they report to the delegate) and whole-run tallies for
the aggregate figures.

The FIFO runs on calendar callbacks rather than a process: a queue, the
request at its head, and one pending calendar entry — the end of the
service or flush slice in progress — are the whole clock. A request that
reaches an idle server starts service in the same instant, with no
hand-off event in between.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from ..core.tuning import LatencyReport
from ..sim import Call, Simulator, Tally, TimeSeries
from ..sim.monitor import TallyColumns
from .cache import CacheModel
from .request import MetadataRequest

__all__ = ["FileServer", "land_moments"]


class FileServer:
    """One metadata server in the shared-disk cluster.

    Parameters
    ----------
    env:
        The discrete-event simulator.
    server_id:
        Cluster-unique identifier.
    power:
        Service rate in work units per second (> 0).
    cache:
        Shared :class:`CacheModel`; ``None`` disables cache effects.

    Notes
    -----
    The server is up from construction and serves its FIFO from
    calendar callbacks: each service or flush slice is one
    :meth:`~repro.sim.Simulator.schedule_at` entry whose callback books
    the slice and starts the next. :meth:`submit` is the only entry
    point for work; :meth:`interval_report` closes a measurement window
    (the report the server sends the delegate each tuning interval).
    """

    def __init__(
        self,
        env: Simulator,
        server_id: object,
        power: float,
        cache: Optional[CacheModel] = None,
    ) -> None:
        if power <= 0:
            raise ValueError(f"server power must be > 0, got {power}")
        self.env = env
        self.server_id = server_id
        self.power = float(power)
        #: Nominal power; ``power`` may be temporarily degraded below it
        #: by straggler injection (see :meth:`set_power_factor`).
        self.base_power = float(power)
        self.cache = cache
        #: Waiting requests; the one at the head is held apart in _head.
        self._queue: Deque[MetadataRequest] = deque()
        #: The request at the head of the line — in service, or waiting
        #: behind a flush slice — or ``None`` while the server is idle.
        self._head: Optional[MetadataRequest] = None
        #: Calendar entry ending the slice in progress, and its start.
        self._slice: Optional[Call] = None
        self._slice_start = 0.0
        self._failed = False
        #: Crash count; bumps on every fail(). Clients use it to notice
        #: that a queue they submitted into was discarded by a crash,
        #: even if the server has already recovered since.
        self.incarnation = 0
        # Whole-run statistics.
        self.completed = Tally(keep=True)
        #: Per-interval mean latency samples (one per tuning round).
        self.latency_series = TimeSeries(name=f"server-{server_id}")
        #: Requests completed, whole run.
        self.completed_requests: int = 0
        #: Busy time accumulated (for utilization).
        self.busy_time: float = 0.0
        # Current-interval accumulators.
        self._window_latency_sum = 0.0
        self._window_count = 0
        self._window_start = env.now
        # Per-file-set work observed this window (a server-local
        # observation; consumed by bin-packing-style policies).
        self._window_fs_work: dict = {}
        # Consecutive idle reporting windows (for delegate idle backoff).
        self._idle_rounds = 0
        # Previous window's mean latency (for the delegate's burst filter).
        self._prev_mean = math.nan
        self._flush_backlog: List[float] = []
        #: Optional completion hook ``probe(request)`` — set by the
        #: engine when a RequestCompleted subscriber exists; ``None``
        #: (the default) keeps the completion path probe-free.
        self.probe = None

    # ------------------------------------------------------------------ #
    # workload entry points
    # ------------------------------------------------------------------ #
    def submit(self, request: MetadataRequest) -> None:
        """Enqueue a metadata request (FIFO); an idle server starts it now."""
        if self._failed:
            raise RuntimeError(f"server {self.server_id!r} is failed")
        request.server = self.server_id
        if self._head is None:
            self._take(request)
        else:
            self._queue.append(request)

    def charge_flush(self, work: float) -> None:
        """Charge cache-flush busy work (a shed's cost to the releaser).

        Modeled as a pseudo-job at the *next head-of-line position*: the
        flush occupies the server before the next request to reach the
        head starts service, which is how a synchronous cache write-back
        behaves. An idle server runs it when its next request arrives.
        """
        if work > 0:
            self._flush_backlog.append(work)

    @property
    def queue_length(self) -> int:
        """Requests currently waiting (excludes the one in service)."""
        return len(self._queue)

    @property
    def failed(self) -> bool:
        """``True`` while the server is down."""
        return self._failed

    # ------------------------------------------------------------------ #
    # straggler injection
    # ------------------------------------------------------------------ #
    def set_power_factor(self, factor: float) -> None:
        """Scale effective power to ``factor × base_power`` (straggler).

        ``factor < 1`` degrades the server (a straggler: overheating,
        background load, a failing disk); ``factor = 1`` restores it.
        Applies to service slices started after the call — the slice in
        progress finishes at its old rate, like a real rate change.
        """
        if factor <= 0:
            raise ValueError(f"power factor must be > 0, got {factor}")
        self.power = self.base_power * float(factor)

    @property
    def degraded(self) -> bool:
        """``True`` while a straggler injection is active."""
        return self.power != self.base_power

    # ------------------------------------------------------------------ #
    # the FIFO clock
    # ------------------------------------------------------------------ #
    def _take(self, request: MetadataRequest) -> None:
        """``request`` reaches the head: pending flush work runs first."""
        self._head = request
        if self._flush_backlog:
            self._flush()
        else:
            self._serve(request)

    def _flush(self) -> None:
        now = self.env.now
        self._slice_start = now
        self._slice = self.env.schedule_at(
            now + self._flush_backlog.pop(0) / self.power, self._flushed
        )

    def _flushed(self) -> None:
        self.busy_time += self.env.now - self._slice_start
        if self._flush_backlog:
            self._flush()
        else:
            self._serve(self._head)

    def _serve(self, request: MetadataRequest) -> None:
        # Service start, the cache multiplier and the power all read the
        # state of this instant; a later straggler factor slows only
        # slices that start after it.
        env = self.env
        now = env.now
        request.service_start = now
        work = request.work
        if self.cache is not None:
            work *= self.cache.work_multiplier(self.server_id, request.fileset, now)
        self._slice_start = now
        self._slice = env.schedule_at(now + work / self.power, self._served)

    def _served(self) -> None:
        """Book the finished service slice and the request, then start
        the next request in line or go idle."""
        now = self.env.now
        self.busy_time += now - self._slice_start
        request = self._head
        request.completion = now
        latency = now - request.arrival
        self.completed.observe(latency)
        self.completed_requests += 1
        self._window_latency_sum += latency
        self._window_count += 1
        fs_work = self._window_fs_work
        fs_work[request.fileset] = fs_work.get(request.fileset, 0.0) + request.work
        # Hooks run while the request still holds the head, so one that
        # submits here queues behind whatever is already waiting.
        if request.on_complete is not None:
            request.on_complete(request)
        if self.probe is not None:
            self.probe(request)
        if self._queue:
            self._take(self._queue.popleft())
        else:
            self._head = None
            self._slice = None

    def absorb_batch(self, latencies, busy: float) -> None:
        """Bulk-account a cohort of completed requests.

        The vectorized client path computes completions outside the
        per-request FIFO clock and lands them here: whole-run tally,
        window accumulators, and busy time in one call, equivalent to
        serving each request here (window file-set work is not tracked —
        the vectorized path documents that limitation).
        """
        count = latencies.shape[0]
        if count == 0:
            return
        self.completed.observe_many(latencies)
        self.completed_requests += count
        self.busy_time += busy
        self._window_latency_sum += float(latencies.sum())
        self._window_count += count

    # ------------------------------------------------------------------ #
    # measurement
    # ------------------------------------------------------------------ #
    def interval_report(self) -> LatencyReport:
        """Close the current measurement window and report it.

        Returns the :class:`LatencyReport` the server sends the
        delegate: mean latency over requests *completed* in the window
        (``nan`` if none — an idle server has nothing to report).
        """
        now = self.env.now
        if self._window_count:
            mean = self._window_latency_sum / self._window_count
            self._idle_rounds = 0
        else:
            mean = math.nan
            self._idle_rounds += 1
        report = LatencyReport(
            server_id=self.server_id,
            mean_latency=mean,
            request_count=self._window_count,
            window=(self._window_start, now),
            idle_rounds=self._idle_rounds,
            prev_mean_latency=self._prev_mean,
        )
        self._prev_mean = mean
        self.latency_series.record(now, mean)
        self._window_latency_sum = 0.0
        self._window_count = 0
        self._window_start = now
        return report

    def drain_fileset_work(self) -> dict:
        """Per-file-set work served this window; resets the accumulator.

        This is information a real server observes locally (it served
        the requests); policies in the bin-packing family consume it.
        Call alongside :meth:`interval_report`.
        """
        out = self._window_fs_work
        self._window_fs_work = {}
        return out

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of time busy since t=0 (up to ``horizon`` or now)."""
        t = horizon if horizon is not None else self.env.now
        return self.busy_time / t if t > 0 else 0.0

    # ------------------------------------------------------------------ #
    # failure / recovery
    # ------------------------------------------------------------------ #
    def fail(self) -> List[MetadataRequest]:
        """Take the server down; returns the queued requests it drops.

        The request at the head (in service, or behind a flush slice) is
        lost with it, and the slice in progress never completes. The
        cluster driver re-routes the returned requests through the
        updated placement, modeling clients re-issuing to the new owner.
        """
        if self._failed:
            raise RuntimeError(f"server {self.server_id!r} already failed")
        self._failed = True
        self.incarnation += 1
        if self._slice is not None:
            self._slice.cancel()
            self._slice = None
        self._head = None
        orphans = list(self._queue)
        self._queue.clear()
        return orphans

    def recover(self) -> None:
        """Bring the server back with an empty queue and cold state."""
        if not self._failed:
            raise RuntimeError(f"server {self.server_id!r} is not failed")
        self._failed = False
        self._window_latency_sum = 0.0
        self._window_count = 0
        self._window_start = self.env.now

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        state = "FAILED" if self._failed else f"q={self.queue_length}"
        return f"<FileServer {self.server_id!r} power={self.power} {state}>"


def land_moments(
    servers: Sequence[FileServer], batches: Sequence[Tuple[np.ndarray, ...]]
) -> None:
    """Land pre-reduced completion batches in many servers at once.

    Each batch is a column tuple ``(slots, count, total, m2, minimum,
    maximum, busy)`` over the servers it touches: ``slots`` index
    ``servers`` and do not repeat within a batch, ``total`` is the
    latency sum, ``m2`` the batch's sum of squared deviations and
    ``busy`` its service time. Batches merge in the order given, each
    with :meth:`Tally.observe_moments`'s update plus the request, busy
    and window accumulators, elementwise over its servers — so every
    server ends bit for bit where landing its batches one at a time
    would leave it. Each touched server is read once and written once.
    (Window file-set work is not tracked: the vectorized client path,
    the caller, documents that limitation.)
    """
    if not batches:
        return
    touched = np.unique(np.concatenate([batch[0] for batch in batches]))
    hosts = [servers[i] for i in touched.tolist()]
    tallies = [host.completed for host in hosts]
    moments = TallyColumns(tallies)
    done = np.array([host.completed_requests for host in hosts], dtype=np.int64)
    busy = np.array([host.busy_time for host in hosts], dtype=np.float64)
    window_sum = np.array([host._window_latency_sum for host in hosts], dtype=np.float64)
    window_count = np.array([host._window_count for host in hosts], dtype=np.int64)
    for slots, count, total, m2, minimum, maximum, busy_part in batches:
        at = np.searchsorted(touched, slots)
        moments.merge(at, count, total / count, m2, minimum, maximum)
        done[at] += count
        busy[at] += busy_part
        window_sum[at] += total
        window_count[at] += count
    moments.scatter(tallies)
    for host, d, b, ws, wc in zip(
        hosts, done.tolist(), busy.tolist(), window_sum.tolist(), window_count.tolist()
    ):
        host.completed_requests = d
        host.busy_time = b
        host._window_latency_sum = ws
        host._window_count = wc
