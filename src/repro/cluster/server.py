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

The FIFO is a queue, the request at its head, and the end of the
service or flush slice in progress: finish = max(arrival, previous
finish) + work / power. A request that reaches an idle server starts
service in the same instant, with no hand-off event in between.

A request in line is a row ``(fileset, arrival, work)``, the schedule's
own tuple, with the :class:`~repro.cluster.request.MetadataRequest` as a
fourth field when one was submitted. A row carries no per-run state: a
line no one listens to books its latency and builds no object.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.tuning import LatencyReport
from ..sim import Call, Simulator, Tally, TimeSeries
from ..sim.monitor import TallyColumns
from .cache import CacheModel
from .request import MetadataRequest

__all__ = ["FileServer", "land_moments"]

#: A scheduled request: ``(fileset, arrival, work)``.
Row = Tuple[str, float, float]
#: A request in line: a row, plus the submitted request object if any.
Entry = Union[Row, Tuple[str, float, float, MetadataRequest]]


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
    The server is up from construction. While something in its line
    is listened to (an ``on_complete`` hook, or ``probe``), each
    service or flush slice ends in a
    :meth:`~repro.sim.Simulator.schedule_at` entry, so hooks fire at
    the completion instant. Otherwise the server is a kernel station:
    an arrival only joins the queue, and :meth:`advance` books the
    backlog — every slice that ends before the next calendar entry —
    in one pass, with the same values and one counted event per slice.
    Between entries the placement is fixed, so each line evolves alone.
    :meth:`submit_row` is the one entry point for work and holds the
    quiet rule; :meth:`submit` enters a request object through it. A
    submitted object is stamped (``server``, ``service_start``,
    ``completion``) and its hook called; a row is not, and ``probe``
    sees a request built from its fields at its completion.
    :meth:`interval_report` closes a measurement window (the report the
    server sends the delegate each tuning interval).
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
        #: Requests behind the head, in arrival order. Between entries
        #: some of them may be due to have started: :meth:`advance`
        #: books that backlog when something looks.
        self._queue: Deque[Entry] = deque()
        #: The request at the head of the line — in service, or waiting
        #: behind a flush slice — or ``None`` while the server is idle.
        self._head: Optional[Entry] = None
        #: The slice in progress: its start, whether it is flush work,
        #: and its calendar entry if listened, else its inline end
        #: (``inf`` when none; finite exactly while in ``env.stations``).
        self._slice_start = 0.0
        self._flushing = False
        self._slice: Optional[Call] = None
        self._end = math.inf
        #: Requests in line, the head included, with an ``on_complete``.
        self._listened = 0
        #: ``True`` while the server is down; only :meth:`fail` and
        #: :meth:`recover` write it.
        self.failed = False
        #: Crash count; bumps on every fail(). Clients use it to notice
        #: that a queue they submitted into was discarded by a crash,
        #: even if the server has already recovered since.
        self.incarnation = 0
        # Whole-run statistics.
        self.completed = Tally(keep=True)
        #: Per-interval mean latency samples (one per tuning round).
        self.latency_series = TimeSeries(name=f"server-{server_id}")
        #: Busy time accumulated (for utilization).
        self.busy_time: float = 0.0
        # Current-interval accumulators.
        self._window_latency_sum = 0.0
        self._window_count = 0
        self._window_start = env.now
        # Consecutive idle reporting windows (for delegate idle backoff).
        self._idle_rounds = 0
        # Previous window's mean latency (for the delegate's burst filter).
        self._prev_mean = math.nan
        self._flush_backlog: List[float] = []
        #: Optional completion hook ``probe(request)`` — set by the
        #: engine when a RequestCompleted subscriber exists; ``None``
        #: (the default) keeps the completion path probe-free. A row's
        #: request is built from its fields when it completes.
        self.probe = None

    # ------------------------------------------------------------------ #
    # workload entry points
    # ------------------------------------------------------------------ #
    def submit(self, request: MetadataRequest) -> bool:
        """Enqueue a request object (FIFO): :meth:`submit_row` with the
        object riding along, stamped as it is served."""
        return self.submit_row((request.fileset, request.arrival, request.work), request)

    def submit_row(self, row: Row, request: Optional[MetadataRequest] = None) -> bool:
        """Enqueue a row ``(fileset, arrival, work)`` (FIFO); an idle
        server starts it now. ``request``, if given, is the row's object.

        An unlistened row submitted at its own arrival instant to an
        unlistened line only joins the queue: it starts at max(arrival,
        previous finish) when the line is next booked. Any other submit
        (a request with an ``on_complete`` hook, a listened line, a
        ``probe``, or a clock past the arrival, as for an orphan
        re-issued after a crash) first brings the server to the clock,
        and a hooked request puts the line on the calendar until it ends.

        Returns ``True`` when the submit left the calendar as it was
        (the line is unlistened); on ``False`` it may have scheduled an
        entry, which a caller that moves the clock itself
        (:class:`~repro.engine.client_path.RequestDriver`) must not pass.
        """
        if self.failed:
            raise RuntimeError(f"server {self.server_id!r} is failed")
        now = self.env.now
        entry = row
        hooked = False
        if request is not None:
            request.server = self.server_id
            entry = (*row, request)
            hooked = request.on_complete is not None
        quiet = not self._listened and self.probe is None and not hooked
        if not quiet or row[1] != now:
            self.advance(now)
            if hooked:
                self._listened += 1
                self._to_calendar()
        if self._head is None:
            self._head = entry
            self._serve(None, now)
        else:
            self._queue.append(entry)
        return quiet

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
    def completed_requests(self) -> int:
        """Requests completed, whole run."""
        return self.completed.count

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
    def advance(self, t: float) -> None:
        """Book every inline slice that ends strictly before ``t``,
        one simulated event each."""
        if self._end < t:
            self.env.events_processed += self._serve(self._end, t)

    def _ended(self) -> None:
        """A listened slice's calendar entry: book that one slice."""
        now = self.env.now
        self._serve(now, now)

    def _serve(self, end: Optional[float], t: float) -> int:
        """The FIFO rules, in one loop: book the slice in progress as
        ended at ``end``, open the next slice, and go on while slices
        end strictly before ``t``; return the slices booked.

        ``end=None`` opens the head's first slice at ``t`` (an idle
        server took a request). A slice opens at the previous slice's
        end, or at the arrival of a head that came later: pending flush
        work first, then the head's service, with the cache multiplier
        and the power read then. A slice opened while the line is
        listened ends in a calendar entry, which stops the loop.
        """
        env = self.env
        queue = self._queue
        backlog = self._flush_backlog
        cache = self.cache
        sid = self.server_id
        power = self.power
        probe = self.probe
        listened = self._listened
        head = self._head
        # The head's request object, if one rides along.
        request = head[3] if head is not None and len(head) > 3 else None
        flushing = self._flushing
        start = self._slice_start
        busy = self.busy_time
        window_sum = self._window_latency_sum
        latencies: List[float] = []
        booked = 0
        at = t
        book = end is not None
        while True:
            if book:
                booked += 1
                busy += end - start
                at = end
                if not flushing:
                    latency = end - head[1]
                    latencies.append(latency)
                    window_sum += latency
                    hook = None
                    if request is not None:
                        request.completion = end
                        hook = request.on_complete
                    if hook is not None or probe is not None:
                        # Hooks see the server as booked so far, while
                        # the request still holds the head: one that
                        # submits here queues behind whatever waits.
                        self._head = head
                        self._write_back(busy, window_sum, latencies)
                        latencies = []
                        if hook is not None:
                            self._listened -= 1
                            hook(request)
                        if probe is not None:
                            if request is None:
                                request = MetadataRequest(*head, sid, start, end)
                            probe(request)
                        busy = self.busy_time
                        window_sum = self._window_latency_sum
                        power = self.power
                        probe = self.probe
                        listened = self._listened
                    if not queue:
                        head = None
                        break
                    head = queue.popleft()
                    request = head[3] if len(head) > 3 else None
                    if head[1] > end:
                        at = head[1]
            book = True
            start = at
            if backlog:
                flushing = True
                end = at + backlog.pop(0) / power
            else:
                flushing = False
                if request is not None:
                    request.service_start = at
                work = head[2]
                if cache is not None and cache.cold:  # else every multiplier is 1
                    work *= cache.work_multiplier(sid, head[0], at)
                end = at + work / power
            if listened or probe is not None:
                self._leave_stations()
                self._slice = env.schedule_at(end, self._ended)
                break
            if end >= t:
                if self._end == math.inf:
                    env.stations[self] = None
                self._end = end
                break
        if head is None:
            self._slice = None
            self._leave_stations()
        self._head = head
        self._flushing = flushing
        self._slice_start = start
        if booked:
            self._write_back(busy, window_sum, latencies)
        return booked

    def _write_back(self, busy: float, window_sum: float, latencies: List[float]) -> None:
        """Store what :meth:`_serve` booked into its locals."""
        self.busy_time = busy
        self._window_latency_sum = window_sum
        if latencies:
            self._window_count += len(latencies)
            self.completed.observe_each(latencies)

    def _to_calendar(self) -> None:
        """Give the inline slice in progress a real calendar entry."""
        if self._end != math.inf:
            self._slice = self.env.schedule_at(self._end, self._ended)
            self._leave_stations()

    def _leave_stations(self) -> None:
        if self._end != math.inf:
            self._end = math.inf
            del self.env.stations[self]

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
        lost with it, and the slice in progress — even one ending at
        this instant — never completes: its entry, real even for an
        inline slice, fires as a counted no-op. A queued row comes back
        as a request built from its fields, a submitted object as
        itself. The cluster driver re-routes the returned requests
        through the updated placement, modeling clients re-issuing to
        the new owner.
        """
        if self.failed:
            raise RuntimeError(f"server {self.server_id!r} already failed")
        self.advance(self.env.now)
        self.failed = True
        self.incarnation += 1
        self._to_calendar()
        if self._slice is not None:
            self._slice.cancel()
            self._slice = None
        self._head = None
        self._listened = 0
        orphans = [
            entry[3] if len(entry) > 3 else MetadataRequest(*entry, self.server_id)
            for entry in self._queue
        ]
        self._queue.clear()
        return orphans

    def recover(self) -> None:
        """Bring the server back with an empty queue and cold state."""
        if not self.failed:
            raise RuntimeError(f"server {self.server_id!r} is not failed")
        self.failed = False
        self._window_latency_sum = 0.0
        self._window_count = 0
        self._window_start = self.env.now

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        state = "FAILED" if self.failed else f"q={len(self._queue)}"
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
    with :meth:`Tally.observe_moments`'s update plus the busy and
    window accumulators, elementwise over its servers — so every
    server ends bit for bit where landing its batches one at a time
    would leave it. Each touched server is read once and written once.
    """
    if not batches:
        return
    # Slots are small non-negative ints: a bincount finds the touched
    # ones in order without np.unique (which imports numpy.ma).
    touched = np.flatnonzero(np.bincount(np.concatenate([batch[0] for batch in batches])))
    hosts = [servers[i] for i in touched.tolist()]
    tallies = [host.completed for host in hosts]
    moments = TallyColumns(tallies)
    busy = np.array([host.busy_time for host in hosts], dtype=np.float64)
    window_sum = np.array([host._window_latency_sum for host in hosts], dtype=np.float64)
    window_count = np.array([host._window_count for host in hosts], dtype=np.int64)
    for slots, count, total, m2, minimum, maximum, busy_part in batches:
        at = np.searchsorted(touched, slots)
        moments.merge(at, count, total / count, m2, minimum, maximum)
        busy[at] += busy_part
        window_sum[at] += total
        window_count[at] += count
    moments.scatter(tallies)
    for host, b, ws, wc in zip(hosts, busy.tolist(), window_sum.tolist(), window_count.tolist()):
        host.busy_time = b
        host._window_latency_sum = ws
        host._window_count = wc
