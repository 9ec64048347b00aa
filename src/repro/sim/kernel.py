"""The discrete-event simulation kernel (YACSIM substitute).

The paper's evaluation uses YACSIM, a C library for discrete-event
simulation. :class:`Simulator` provides what the reproduction needs of
it: a virtual clock and a calendar of cancellable callbacks. Every
station, driver and periodic loop in the repo is a callback that
schedules its own next entry with :meth:`Simulator.schedule_at`.

The kernel is single-threaded and fully deterministic: entries fire in
time order, and entries for the same instant fire in the order they
were scheduled, so two runs with the same seeds produce identical event
sequences. All times are ``float`` seconds of *simulated* time.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> log = []
>>> def tick():
...     log.append(sim.now)
...     if sim.now < 10.0:
...         sim.schedule_at(sim.now + 5.0, tick)
>>> _ = sim.schedule_at(0.0, tick)
>>> sim.run()
>>> log
[0.0, 5.0, 10.0]
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

__all__ = ["Call", "SchedulingError", "Simulator"]


class SchedulingError(Exception):
    """An entry or a run deadline was placed before the current time."""


class Call:
    """One calendar entry: runs ``fn()`` when the clock reaches it.

    :meth:`cancel` disarms the entry: it keeps its place on the
    calendar and is processed, and counted, as a no-op, so cancelling
    costs no heap search.
    """

    __slots__ = ("fn",)

    def cancel(self) -> None:
        """Disarm the callback; the entry still fires, doing nothing."""
        self.fn = None


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the simulated clock (default ``0.0``).
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        # Entries are (time, sequence number, Call): the sequence number
        # breaks ties between equal times in scheduling order.
        self._heap: List[Tuple[float, int, Call]] = []
        self._seq = itertools.count()
        #: Number of calendar entries processed so far, cancelled ones
        #: included (diagnostic counter).
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Call:
        """Run ``callback()`` at absolute simulated ``time``.

        Returns the calendar entry; ``entry.cancel()`` disarms it.
        Stations schedule one entry per service slice, so the entry is
        built without an ``__init__`` call. ``schedule_at(env.now, f)``
        runs ``f`` after every entry already due at this instant.
        """
        if time < self._now:
            raise SchedulingError(f"schedule_at({time}) is in the past (now={self._now})")
        call = Call.__new__(Call)
        call.fn = callback
        if type(time) is not float:
            time = float(time)
        heappush(self._heap, (time, next(self._seq), call))
        return call

    def run(self, until: Optional[float] = None) -> None:
        """Process the calendar in time order.

        Parameters
        ----------
        until:
            If given, stop before the first entry later than ``until``
            and leave the clock at exactly ``until``. If ``None``, run
            until no entries remain.
        """
        if until is not None and until < self._now:
            raise SchedulingError(f"run(until={until}) is in the past (now={self._now})")
        heap = self._heap
        pop = heappop
        processed = 0
        # Two copies of the loop, so the unbounded run tests no deadline
        # per entry.
        try:
            if until is None:
                while heap:
                    self._now, _, call = pop(heap)
                    processed += 1
                    fn = call.fn
                    if fn is not None:
                        fn()
            else:
                while heap and heap[0][0] <= until:
                    self._now, _, call = pop(heap)
                    processed += 1
                    fn = call.fn
                    if fn is not None:
                        fn()
                self._now = until
        finally:
            self.events_processed += processed

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return f"<Simulator now={self._now} pending={len(self._heap)}>"

