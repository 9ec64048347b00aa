"""A minimal generator-process runtime over ``Simulator.schedule_at``.

Test-only: it hosts the generator oracles (``GeneratorFileServer`` in
``tests/cluster/test_fifo_oracle.py`` and ``GeneratorHardenedClient`` in
``tests/engine/test_hardened_oracle.py``) that the callback stations are
held to bit for bit. Every hop lands where a process-style kernel puts
it, so same-instant ordering is the one those oracles were written for:

* a process starts from a zero-delay entry, after every entry already
  due at its creation instant;
* ``Event.succeed`` fires the event from a zero-delay entry; its waiters
  run then, in the order they subscribed;
* a ``Timeout`` is one entry at ``now + delay``;
* ``AnyOf`` succeeds (one more hop) when its first child fires;
* ``Process.interrupt`` throws :class:`Interrupt` into the generator
  from a zero-delay entry, detached from whatever it was waiting on.

An exception a generator does not catch propagates out of
``Simulator.run``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional

from repro.sim import Call, Simulator

__all__ = ["AnyOf", "Event", "Interrupt", "Process", "Store", "Timeout"]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on."""

    def __init__(self, env: Simulator) -> None:
        self.env = env
        self.callbacks: List[Callable[["Event"], None]] = []
        self.value: Any = None
        self.triggered = False
        self.processed = False

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event from a zero-delay calendar entry."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self.triggered = True
        self.value = value
        self.env.schedule_at(self.env.now, self._fire)
        return self

    def _fire(self) -> None:
        self.processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds from now."""

    def __init__(self, env: Simulator, delay: float, value: Any = None) -> None:
        super().__init__(env)
        self.triggered = True
        self.value = value
        env.schedule_at(env.now + delay, self._fire)


class AnyOf(Event):
    """Fires once any of ``events`` has fired."""

    def __init__(self, env: Simulator, events: Iterable[Event]) -> None:
        super().__init__(env)
        for event in events:
            if event.processed:
                self._child_fired(event)
            else:
                event.callbacks.append(self._child_fired)

    def _child_fired(self, event: Event) -> None:
        if not self.triggered:
            self.succeed(event.value)


class Process(Event):
    """A generator that yields events; fires with its return value."""

    def __init__(self, env: Simulator, generator: Generator) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        super().__init__(env)
        self.generator = generator
        #: What the process waits on: an event, or the entry of a hop.
        self._target: Optional[object] = env.schedule_at(env.now, self._resume)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process from a zero-delay entry."""
        if not self.is_alive:
            raise RuntimeError("cannot interrupt a finished process")
        self._detach()
        self._target = self.env.schedule_at(
            self.env.now, lambda: self._resume(throw=Interrupt(cause))
        )

    def _detach(self) -> None:
        target = self._target
        if isinstance(target, Call):
            target.cancel()
        elif target is not None:
            target.callbacks.remove(self._wake)
        self._target = None

    def _wake(self, event: Event) -> None:
        self._resume(event.value)

    def _resume(self, value: Any = None, throw: Optional[BaseException] = None) -> None:
        self._target = None
        try:
            if throw is not None:
                target = self.generator.throw(throw)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if target.processed:
            # Already fired: resume from a hop, one entry later.
            self._target = self.env.schedule_at(
                self.env.now, lambda: self._resume(target.value)
            )
        else:
            target.callbacks.append(self._wake)
            self._target = target


class Store:
    """Unbounded FIFO buffer; ``get`` is an event firing with the oldest item."""

    def __init__(self, env: Simulator) -> None:
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Event:
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def drain(self) -> List[Any]:
        items = list(self._items)
        self._items.clear()
        return items
