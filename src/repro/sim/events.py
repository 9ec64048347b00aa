"""Events and the pending-event calendar for the simulation kernel.

An :class:`Event` is a one-shot occurrence with an attached value and a
list of callbacks. Events move through three states:

``PENDING`` → ``TRIGGERED`` (scheduled on the calendar) → ``PROCESSED``
(callbacks ran).

The :class:`EventQueue` is a binary-heap calendar keyed on
``(time, priority, sequence)``. The monotonically increasing sequence
number makes event ordering *fully deterministic*: two events scheduled
for the same time and priority fire in scheduling order, independent of
heap internals. Determinism is essential for reproducible experiments —
every figure in the paper reproduction is re-runnable bit-for-bit from a
seed.

Performance notes
-----------------
The kernel processes one event per simulated request *step*, so event
creation and dispatch dominate experiment wall-time. Two internal
representations keep the common cases allocation-free:

* ``_cbs`` stores the waiter set as ``None`` (no waiters — the dominant
  case for bare timeouts), a single callable (one waiter — the dominant
  timeout→resume pattern), or a list (the general case). The public
  :attr:`Event.callbacks` list is materialized lazily on first access,
  so external code keeps full list semantics while internal code never
  allocates a list per event.
* :class:`Timeout` writes its slots directly instead of chaining
  ``__init__`` calls; it is born ``TRIGGERED``.
"""

from __future__ import annotations

import itertools
from enum import IntEnum
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

from .errors import EventStateError, SchedulingError

__all__ = [
    "EventState",
    "Event",
    "Timeout",
    "Call",
    "CompositeEvent",
    "AllOf",
    "AnyOf",
    "EventQueue",
]


class EventState(IntEnum):
    """Life-cycle states of an :class:`Event`."""

    PENDING = 0
    TRIGGERED = 1
    PROCESSED = 2


# Singleton members hoisted for identity-fast state tests on hot paths.
_PENDING = EventState.PENDING
_TRIGGERED = EventState.TRIGGERED
_PROCESSED = EventState.PROCESSED


class Event:
    """A one-shot simulation event.

    Parameters
    ----------
    env:
        The owning :class:`~repro.sim.kernel.Simulator`. May be ``None``
        for free-standing events used in tests; such events must be
        triggered through a kernel explicitly.

    Attributes
    ----------
    value:
        The payload delivered to callbacks and to yielding processes.
        ``None`` until the event is triggered.
    ok:
        ``True`` if the event succeeded, ``False`` if it failed. A failed
        event re-raises its ``value`` (an exception) inside any process
        waiting on it.
    callbacks:
        Callables invoked as ``cb(event)`` when the event is processed.
    """

    __slots__ = ("env", "_cbs", "value", "ok", "_state", "_defused")

    def __init__(self, env: Optional["Any"] = None) -> None:
        self.env = env
        self._cbs: Any = None  # None | callable | List[callable]
        self.value: Any = None
        self.ok: bool = True
        self._state = _PENDING
        self._defused = False

    # -- waiter management -------------------------------------------------
    @property
    def callbacks(self) -> List[Callable[["Event"], None]]:
        """Waiter list (materialized lazily; internal storage is compact)."""
        cbs = self._cbs
        if type(cbs) is list:
            return cbs
        lst: List[Callable[["Event"], None]] = [] if cbs is None else [cbs]
        self._cbs = lst
        return lst

    @callbacks.setter
    def callbacks(self, value: List[Callable[["Event"], None]]) -> None:
        self._cbs = list(value)

    def _add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Append a waiter without forcing list materialization."""
        cbs = self._cbs
        if cbs is None:
            self._cbs = cb
        elif type(cbs) is list:
            cbs.append(cb)
        else:
            self._cbs = [cbs, cb]

    def _discard_callback(self, cb: Callable[["Event"], None]) -> None:
        """Remove a waiter if present (no-op otherwise)."""
        cbs = self._cbs
        if cbs is None:
            return
        if type(cbs) is list:
            try:
                cbs.remove(cb)
            except ValueError:
                pass
        elif cbs == cb:
            self._cbs = None

    # -- state inspection -------------------------------------------------
    @property
    def state(self) -> EventState:
        """Current life-cycle state."""
        return self._state

    @property
    def triggered(self) -> bool:
        """``True`` once the event has been placed on the calendar."""
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        """``True`` once callbacks have run."""
        return self._state is _PROCESSED

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value`` at the current time."""
        self._trigger(ok=True, value=value)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; ``exception`` propagates to waiters."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        self._trigger(ok=False, value=exception)
        return self

    def force_trigger(self, value: Any = None, ok: bool = True) -> "Event":
        """Mark the event ``TRIGGERED`` without scheduling it.

        The public seam for code that manages calendar placement itself
        (e.g. pushing the event through :meth:`EventQueue.push` at an
        absolute time instead of a delay). The caller *must* place the
        event on a calendar afterwards or it will never be processed.

        Raises :class:`EventStateError` if the event already triggered.
        """
        if self._state is not _PENDING:
            raise EventStateError(f"{self!r} has already been triggered")
        self.ok = ok
        self.value = value
        self._state = _TRIGGERED
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self._state is not _PENDING:
            raise EventStateError(f"{self!r} has already been triggered")
        if self.env is None:
            raise EventStateError(f"{self!r} has no simulator to schedule on")
        self.ok = ok
        self.value = value
        self._state = _TRIGGERED
        self.env._schedule(self, delay=0.0)

    def _mark_processed(self) -> None:
        self._state = _PROCESSED

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel does not crash.

        When a failed event is processed and nobody is waiting on it, the
        kernel raises the failure to the top level unless the event has
        been defused.
        """
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<{type(self).__name__} state={self._state.name} value={self.value!r}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Created via :meth:`Simulator.timeout`; it is triggered at construction
    time and cannot fail. Slots are written directly (no ``__init__``
    chain) — one Timeout is created per simulated delay, which makes this
    constructor the single hottest allocation site in the kernel.
    """

    __slots__ = ("delay",)

    def __init__(self, env: Any, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SchedulingError(f"negative timeout delay {delay!r}")
        self.env = env
        self._cbs = None
        self.value = value
        self.ok = True
        self._state = _TRIGGERED
        self._defused = False
        self.delay = delay = float(delay)
        # Inlined Simulator._schedule (delay already validated >= 0):
        # one timeout is created per simulated delay, so the push runs
        # without a function-call indirection. The bare sequence number
        # is the NORMAL-priority ordering key (see EventQueue below).
        heappush(env._heap, (env._now + delay, next(env._seq), self))


class Call(Event):
    """A calendar entry that runs a zero-argument callback when processed.

    Built by :meth:`Simulator.schedule_at`, which writes its slots
    directly — callback-driven stations (the file servers' FIFO clocks)
    schedule one per service slice. :meth:`cancel` disarms the entry: it
    keeps its place on the calendar and is processed, and counted, as a
    no-op, so cancelling costs no heap search.
    """

    __slots__ = ("fn",)

    def cancel(self) -> None:
        """Disarm the callback; the entry still fires, doing nothing."""
        self._cbs = None


def _run_call(call: Call) -> None:
    call.fn()


class CompositeEvent(Event):
    """Base for events that fire when a condition over child events holds."""

    __slots__ = ("events", "_count")

    def __init__(self, env: Any, events: List[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        self._count = 0
        if not self.events:
            # Empty condition is immediately true.
            self.succeed({})
            return
        for ev in self.events:
            if ev.processed:
                self._child_fired(ev)
            else:
                ev._add_callback(self._child_fired)

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _child_fired(self, ev: Event) -> None:
        if self._state is not _PENDING:
            return
        if not ev.ok:
            ev.defuse()
            self.fail(ev.value)
            return
        self._count += 1
        if self._satisfied():
            self.succeed({e: e.value for e in self.events if e.processed or e.triggered})


class AllOf(CompositeEvent):
    """Fires when *all* child events have fired (conjunction)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count == len(self.events)


class AnyOf(CompositeEvent):
    """Fires when *any* child event has fired (disjunction)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1


#: Ordering-key offset applied per priority level. NORMAL events use the
#: bare sequence number (no arithmetic, no extra allocation on the hot
#: path); URGENT events subtract a constant far larger than any sequence
#: number a run can reach, so they sort before every NORMAL event at the
#: same time while staying FIFO among themselves.
_URGENT_OFFSET = 1 << 60


class EventQueue:
    """Deterministic binary-heap event calendar.

    Entries are ``(time, key, event)`` tuples. For NORMAL-priority
    events ``key`` is the bare sequence number drawn from a process-wide
    counter, so FIFO order is preserved among equal times; URGENT events
    use ``seq - 2^60`` so they win every same-time comparison. A single
    integer key keeps entries at three elements and resolves equal-time
    comparisons — common in bursty schedules — with one compare.

    The :class:`~repro.sim.kernel.Simulator` aliases ``_heap`` and
    ``_seq`` so its hot loop can push/pop without a method-call
    indirection; both views always observe the same calendar.
    """

    __slots__ = ("_heap", "_seq")

    #: Default scheduling priority. Lower fires first at equal times.
    NORMAL = 1
    #: Priority for urgent bookkeeping events (fire before NORMAL).
    URGENT = 0

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, event: Event, priority: int = NORMAL) -> None:
        """Schedule ``event`` to fire at absolute ``time``."""
        key = next(self._seq)
        if priority == self.URGENT:
            key -= _URGENT_OFFSET
        heappush(self._heap, (time, key, event))

    def peek_time(self) -> float:
        """Absolute time of the next event; raises ``IndexError`` if empty."""
        return self._heap[0][0]

    def pop(self) -> tuple:
        """Pop and return ``(time, priority, seq, event)`` of the next event."""
        time, key, event = heappop(self._heap)
        if key < 0:
            return (time, self.URGENT, key + _URGENT_OFFSET, event)
        return (time, self.NORMAL, key, event)

    def clear(self) -> None:
        """Drop all pending entries (used when resetting a simulator)."""
        self._heap.clear()
