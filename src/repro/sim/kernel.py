"""The discrete-event simulation kernel (YACSIM substitute).

The paper's evaluation uses YACSIM, a C library for discrete-event
simulation. :class:`Simulator` provides the equivalent facilities in
Python: a virtual clock, an event calendar, generator-based processes,
and (via :mod:`repro.sim.resources`) FIFO service stations.

The kernel is single-threaded and fully deterministic: given the same
seeds and the same scheduling order, two runs produce identical event
sequences. All times are ``float`` seconds of *simulated* time.

The dispatch loop is the throughput floor for every experiment, so
:meth:`step` works directly on the calendar's heap (no method-call
indirection) and dispatches the compact waiter representation of
:class:`~repro.sim.events.Event` — ``None`` / single callable / list —
without allocating per event.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> log = []
>>> def proc(env):
...     yield env.timeout(5.0)
...     log.append(env.now)
>>> _ = sim.process(proc(sim))
>>> sim.run()
>>> log
[5.0]
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from .errors import SchedulingError, StopSimulation
from .events import (
    AllOf,
    AnyOf,
    Call,
    Event,
    EventQueue,
    Timeout,
    _PROCESSED,
    _TRIGGERED,
    _URGENT_OFFSET,
    _run_call,
)
from .process import Process

__all__ = ["Simulator"]


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the simulated clock (default ``0.0``).

    Notes
    -----
    The public surface mirrors the small, well-known process-interaction
    style (SimPy-like): :meth:`process` registers a generator as a
    process, :meth:`timeout` creates delay events, and :meth:`run`
    executes the calendar until exhaustion or a deadline.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue = EventQueue()
        # Fast-lane aliases: the hot loop pushes/pops the heap directly.
        # Both views share state, so external pushes via ``_queue`` (or
        # ``EventQueue.clear``) remain visible here.
        self._heap = self._queue._heap
        self._seq = self._queue._seq
        #: Number of events processed so far (diagnostic counter).
        self.events_processed = 0

    # ------------------------------------------------------------------ #
    # clock
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # ------------------------------------------------------------------ #
    # event factories
    # ------------------------------------------------------------------ #
    def event(self) -> Event:
        """Create an untriggered :class:`Event` owned by this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` simulated seconds from now.

        Builds the Timeout without chaining through ``__init__`` — one
        timeout per simulated delay makes this the hottest allocation
        site in the kernel, and skipping the extra frame is measurable.
        """
        if delay < 0:
            raise SchedulingError(f"negative timeout delay {delay!r}")
        tm = Timeout.__new__(Timeout)
        tm.env = self
        tm._cbs = None
        tm.value = value
        tm.ok = True
        tm._state = _TRIGGERED
        tm._defused = False
        if type(delay) is not float:
            delay = float(delay)
        tm.delay = delay
        heappush(self._heap, (self._now + delay, next(self._seq), tm))
        return tm

    def process(self, generator: Generator) -> Process:
        """Register ``generator`` as a process and start it immediately.

        The generator may ``yield`` any :class:`Event` (including other
        processes) to wait for it; the value sent back into the generator
        is the event's ``value``.
        """
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires once every event in ``events`` has fired."""
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires once any event in ``events`` has fired."""
        return AnyOf(self, list(events))

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = EventQueue.NORMAL) -> None:
        """Place a triggered event on the calendar ``delay`` from now."""
        if delay < 0:
            raise SchedulingError(f"cannot schedule {delay!r} seconds into the past")
        key = next(self._seq)
        if priority == EventQueue.URGENT:
            key -= _URGENT_OFFSET
        heappush(self._heap, (self._now + delay, key, event))

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Call:
        """Run ``callback()`` at absolute simulated ``time``.

        Returns the calendar entry, a :class:`~repro.sim.events.Call`;
        ``entry.cancel()`` disarms it. The hook for code that prefers
        callback style over full processes: fault injection, churn, and
        the FIFO clocks of the file servers and shared disks, which
        schedule one entry per service slice — so the entry is built
        without an ``__init__`` chain or a wrapper closure, like
        :meth:`timeout`'s. ``schedule_at(env.now + delay, f)`` lands at
        exactly the time ``timeout(delay)`` would, in the same
        first-scheduled-first-fired order among equal times.
        """
        if time < self._now:
            raise SchedulingError(f"schedule_at({time}) is in the past (now={self._now})")
        call = Call.__new__(Call)
        call.env = self
        call._cbs = _run_call
        call.fn = callback
        call.value = None
        call.ok = True
        call._state = _TRIGGERED
        call._defused = False
        if type(time) is not float:
            time = float(time)
        heappush(self._heap, (time, next(self._seq), call))
        return call

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def step(self) -> None:
        """Process exactly one event from the calendar.

        Raises ``IndexError`` if the calendar is empty. Raises the
        failure of an un-defused failed event.
        """
        entry = heappop(self._heap)
        event = entry[2]
        self._now = entry[0]
        event._state = _PROCESSED
        self.events_processed += 1
        cbs = event._cbs
        if cbs is not None:
            event._cbs = None  # free references; event is one-shot
            if type(cbs) is list:
                for callback in cbs:
                    callback(event)
            else:
                # Single-waiter fast lane (the timeout→resume pattern).
                cbs(event)
        if not event.ok and not event._defused:
            # Nobody handled the failure: surface it.
            raise event.value

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        heap = self._heap
        return heap[0][0] if heap else float("inf")

    def run(self, until: Optional[float] = None) -> Any:
        """Run the calendar.

        Parameters
        ----------
        until:
            If given, stop once the clock would pass ``until`` and set the
            clock to exactly ``until``. If ``None``, run until no events
            remain.

        Returns
        -------
        The value passed to :meth:`stop`, if the run was stopped early.
        """
        if until is not None and until < self._now:
            raise SchedulingError(f"run(until={until}) is in the past (now={self._now})")
        # Inlined step() body: the dispatch loop is the throughput floor
        # of every experiment, so it runs without per-event method calls.
        heap = self._heap
        pop = heappop
        done = _PROCESSED
        processed = 0
        # The clock is stored back to ``self._now`` only when someone
        # can observe it mid-loop (callbacks, failures); waiter-less
        # successful events — bare timeouts — skip the attribute store.
        # The calendar-exhaustion loop is specialized so the unbounded
        # case does not evaluate a deadline per event.
        entry = None
        # Bulk fast lane: a deep calendar whose head event has no
        # waiters (bulk pre-scheduled timeouts) is sorted once — a
        # sorted list is a valid heap, and sorted order IS pop order —
        # then consumed by index at O(1) per event instead of an
        # O(log n) sift each. The drain stops at the first event whose
        # processing anyone could observe (waiters or a failure) and
        # compacts the consumed prefix away; the classic loop below
        # takes over on the still-valid remainder.
        n = len(heap)
        if n >= 256 and heap[0][2]._cbs is None and heap[0][2].ok:
            heap.sort()
            i = 0
            if until is None:
                while i < n:
                    event = heap[i][2]
                    if event._cbs is not None or not event.ok:
                        break
                    event._state = done
                    i += 1
            else:
                while i < n:
                    head = heap[i]
                    if head[0] > until:
                        break
                    event = head[2]
                    if event._cbs is not None or not event.ok:
                        break
                    event._state = done
                    i += 1
            if i:
                processed += i
                entry = heap[i - 1]
                del heap[:i]
        try:
            if until is None:
                while heap:
                    entry = pop(heap)
                    event = entry[2]
                    event._state = done
                    processed += 1
                    cbs = event._cbs
                    if cbs is not None:
                        self._now = entry[0]
                        event._cbs = None  # free references; one-shot
                        if type(cbs) is list:
                            for callback in cbs:
                                callback(event)
                        else:
                            # Single-waiter fast lane (timeout→resume).
                            cbs(event)
                    if not event.ok and not event._defused:
                        self._now = entry[0]
                        raise event.value
            else:
                while heap and heap[0][0] <= until:
                    entry = pop(heap)
                    event = entry[2]
                    event._state = done
                    processed += 1
                    cbs = event._cbs
                    if cbs is not None:
                        self._now = entry[0]
                        event._cbs = None  # free references; one-shot
                        if type(cbs) is list:
                            for callback in cbs:
                                callback(event)
                        else:
                            cbs(event)
                    if not event.ok and not event._defused:
                        self._now = entry[0]
                        raise event.value
        except StopSimulation as stop:
            return stop.value
        finally:
            self.events_processed += processed
            if entry is not None and entry[0] > self._now:
                self._now = entry[0]
        if until is not None and self._now < until:
            self._now = until
        return None

    def stop(self, value: Any = None) -> None:
        """Terminate the enclosing :meth:`run` call immediately."""
        raise StopSimulation(value)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Number of events currently on the calendar."""
        return len(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return f"<Simulator now={self._now} pending={len(self._heap)}>"
