"""The discrete-event simulation kernel (YACSIM substitute).

The paper's evaluation uses YACSIM, a C library for discrete-event
simulation. :class:`Simulator` provides what the reproduction needs of
it: a virtual clock and a calendar of cancellable callbacks. Every
driver and periodic loop in the repo is a callback that schedules its
own next entry with :meth:`Simulator.schedule_at`; a station does so
whenever something listens to the end of its slice.

The kernel is single-threaded and fully deterministic: entries fire in
time order, and entries for the same instant fire in the order they
were scheduled, so two runs with the same seeds produce identical event
sequences. All times are ``float`` seconds of *simulated* time.

Work nothing observes when it happens gets no entry. A busy *station*
(an object with ``advance(t)``) sits in :attr:`Simulator.stations`;
:meth:`Simulator.run` advances it through the slices that end strictly
before the next entry (so an entry tied with a slice's end fires
first), and through those ending at or before the deadline when it
stops. A driver moves the clock with :meth:`Simulator.skip_to`. Each
counts one event, as the entry it replaces would.

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
import math
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Tuple

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
        #: Simulated events so far: entries processed (cancelled ones
        #: included), slices booked by stations and skips.
        self.events_processed = 0
        #: Busy stations, an insertion-ordered set (see the module doc).
        self.stations: Dict[object, None] = {}
        # Deadline of the run in progress; skip_to refuses outside run().
        self._deadline = -math.inf

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Call:
        """Run ``callback()`` at absolute simulated ``time``.

        Returns the calendar entry; ``entry.cancel()`` disarms it.
        A listened service slice schedules one entry, so the entry is
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

    def skip_to(self, time: float) -> bool:
        """Move the clock to ``time`` in place of an entry there.

        Refuses (``False``) unless ``time`` is within the running
        deadline and no entry is due at or before it. Stations are not
        advanced: whoever touches one next brings it to the clock.
        """
        heap = self._heap
        if time > self._deadline or (heap and heap[0][0] <= time):
            return False
        self._now = time
        self.events_processed += 1
        return True

    def run(self, until: Optional[float] = None) -> None:
        """Process the calendar in time order.

        Parameters
        ----------
        until:
            If given, stop before the first entry later than ``until``
            and leave the clock at exactly ``until``; stations book the
            slices that end at or before it. If ``None``, run until no
            entries remain and every station is idle.
        """
        if until is not None and until < self._now:
            raise SchedulingError(f"run(until={until}) is in the past (now={self._now})")
        deadline = math.inf if until is None else until
        last = math.nextafter(deadline, math.inf)  # slices ending <= deadline
        heap = self._heap
        stations = self.stations
        pop = heappop
        processed = 0
        self._deadline = deadline
        try:
            while True:
                if stations:
                    t = heap[0][0] if heap and heap[0][0] < last else last
                    for station in tuple(stations):
                        station.advance(t)
                        if heap and heap[0][0] < t:
                            t = heap[0][0]  # an advance pushed an earlier entry
                if not heap or heap[0][0] > deadline:
                    break
                self._now, _, call = pop(heap)
                processed += 1
                fn = call.fn
                if fn is not None:
                    fn()
            if until is not None:
                self._now = until
        finally:
            self._deadline = -math.inf
            self.events_processed += processed

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return f"<Simulator now={self._now} pending={len(self._heap)}>"

