"""The fault injector: calendar callbacks that execute a fault schedule.

:class:`FaultInjector` walks a :class:`~repro.faults.schedule.FaultSchedule`
and applies each event against a *target adapter* — any object exposing
the small injection surface below (implemented by
:class:`~repro.engine.fault_layer.ChaosFaultLayer`):

``crash_server(sid) -> bool`` / ``heal_server(sid)``
    Take a server down (data + control plane) and bring its link back.
``current_delegate() -> sid``
    Resolve the delegate at injection time (for delegate kills).
``apply_partition(nodes)`` / ``heal_partition()``
``apply_straggle(sid, factor) -> bool`` / ``heal_straggle(sid)``
``apply_link_faults(drop, dup, extra_delay)`` / ``heal_link_faults()``

Injection is *guarded*: a fault whose precondition no longer holds at
fire time (victim already down, or downing it would leave fewer than
two live servers) is skipped and counted, never blindly applied — the
guard decisions depend only on deterministic simulation state, so a
schedule replays identically.
"""

from __future__ import annotations

from typing import List, Tuple

from ..sim import Simulator
from .schedule import FaultEvent, FaultKind, FaultSchedule

__all__ = ["FaultInjector"]


class FaultInjector:
    """Drives a fault schedule against a chaos-capable cluster."""

    def __init__(self, env: Simulator, target, schedule: FaultSchedule) -> None:
        self.env = env
        self.target = target
        self.schedule = schedule
        #: ``(time, kind, victim)`` for every fault actually applied.
        self.applied: List[Tuple[float, str, object]] = []
        #: Faults whose precondition failed at fire time.
        self.skipped = 0
        for event in schedule:
            self.env.schedule_at(event.time, self._armed(event))

    def _armed(self, event: FaultEvent):
        return lambda: self._fire(event)

    # ------------------------------------------------------------------ #
    def _fire(self, event: FaultEvent) -> None:
        kind = event.kind
        now = self.env.now
        if kind == FaultKind.CRASH or kind == FaultKind.DELEGATE_CRASH:
            victim = (
                self.target.current_delegate()
                if kind == FaultKind.DELEGATE_CRASH
                else event.target
            )
            if not self.target.crash_server(victim):
                self.skipped += 1
                return
            self.applied.append((now, kind, victim))
            self.env.schedule_at(
                now + event.duration, lambda: self.target.heal_server(victim)
            )
        elif kind == FaultKind.PARTITION:
            nodes = tuple(event.target or ())
            if not nodes:
                self.skipped += 1
                return
            self.target.apply_partition(nodes)
            self.applied.append((now, kind, nodes))
            self.env.schedule_at(
                now + event.duration, lambda: self.target.heal_partition()
            )
        elif kind == FaultKind.STRAGGLE:
            factor = event.params[0] if event.params else 0.25
            victim = event.target
            if not self.target.apply_straggle(victim, factor):
                self.skipped += 1
                return
            self.applied.append((now, kind, victim))
            self.env.schedule_at(
                now + event.duration, lambda: self.target.heal_straggle(victim)
            )
        elif kind == FaultKind.LINK_FAULTS:
            drop, dup, extra = (tuple(event.params) + (0.0, 0.0, 0.0))[:3]
            self.target.apply_link_faults(drop, dup, extra)
            self.applied.append((now, kind, None))
            self.env.schedule_at(
                now + event.duration, lambda: self.target.heal_link_faults()
            )
        else:  # pragma: no cover - schedule validation forbids this
            raise ValueError(f"unknown fault kind {kind!r}")

    # ------------------------------------------------------------------ #
    @property
    def injected(self) -> int:
        """Faults actually applied so far."""
        return len(self.applied)
