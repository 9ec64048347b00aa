"""Fault schedules: scripted or seeded-random, always replayable.

A :class:`FaultSchedule` is a time-ordered list of :class:`FaultEvent`
records — the *entire* description of what the chaos harness will do
to a run. Schedules are plain data: JSON-serializable, hashable by
content, and comparable, so a failing run can ship its ``(seed,
schedule)`` pair as a replay artifact and any later session can
re-execute the identical run.

:func:`random_schedule` draws a schedule from a seeded stream (via
:class:`repro.sim.StreamRegistry`), so ``(seed, fault_rate)`` →
schedule is a pure function: the randomized sweeps are exactly as
replayable as the scripted ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim import StreamRegistry

__all__ = ["FaultKind", "FaultEvent", "FaultSchedule", "random_schedule"]


class FaultKind:
    """The closed vocabulary of injectable faults."""

    #: Crash a server (data plane + control plane); heals after ``duration``.
    CRASH = "crash"
    #: Crash whichever node is the elected delegate at injection time.
    DELEGATE_CRASH = "delegate-crash"
    #: Partition the named nodes away from the rest; heals after ``duration``.
    PARTITION = "partition"
    #: Degrade a server's processing power by ``params[0]``; restores after
    #: ``duration``.
    STRAGGLE = "straggle"
    #: Per-message link faults ``params = (drop, dup, extra_delay)`` for
    #: ``duration`` seconds.
    LINK_FAULTS = "link-faults"

    ALL = (CRASH, DELEGATE_CRASH, PARTITION, STRAGGLE, LINK_FAULTS)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes
    ----------
    time:
        Simulated injection instant (seconds).
    kind:
        One of :class:`FaultKind`.
    target:
        The victim: a server id for crash/straggle, a tuple of node ids
        for partition, ``None`` for delegate-crash and link-faults
        (resolved at injection time / global).
    duration:
        Seconds until the matching heal/restore action.
    params:
        Kind-specific numbers (straggle factor; drop/dup/delay rates).
    """

    time: float
    kind: str
    target: Optional[object] = None
    duration: float = 0.0
    params: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FaultKind.ALL:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        if self.duration < 0:
            raise ValueError(f"fault duration must be >= 0, got {self.duration}")

    def to_dict(self) -> Dict:
        """Plain-JSON representation."""
        return {
            "time": self.time,
            "kind": self.kind,
            "target": list(self.target)
            if isinstance(self.target, (list, tuple))
            else self.target,
            "duration": self.duration,
            "params": list(self.params),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultEvent":
        """Inverse of :meth:`to_dict`."""
        target = data.get("target")
        if isinstance(target, list):
            target = tuple(target)
        return cls(
            time=float(data["time"]),
            kind=str(data["kind"]),
            target=target,
            duration=float(data.get("duration", 0.0)),
            params=tuple(data.get("params", ())),
        )


@dataclass(frozen=True)
class FaultSchedule:
    """A time-ordered, content-comparable fault script."""

    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: (e.time, e.kind, repr(e.target))))
        object.__setattr__(self, "events", ordered)

    def __iter__(self):
        return iter(self.events)

    def to_json(self) -> str:
        """Canonical JSON encoding (stable across runs)."""
        return json.dumps([e.to_dict() for e in self.events], sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        """Inverse of :meth:`to_json`."""
        return cls(events=tuple(FaultEvent.from_dict(d) for d in json.loads(text)))


def random_schedule(
    seed: int,
    duration: float,
    server_ids: Sequence[object],
    fault_rate: float,
    min_outage: float = 30.0,
    max_outage: float = 90.0,
    kinds: Sequence[str] = FaultKind.ALL,
    straggle_factor: float = 0.25,
    link_profile: Tuple[float, float, float] = (0.05, 0.02, 0.002),
) -> FaultSchedule:
    """Draw a deterministic random schedule.

    Parameters
    ----------
    seed:
        Root seed; the schedule is a pure function of the full argument
        tuple.
    duration:
        Run horizon in simulated seconds. Faults are injected in the
        first 70% so their heals and after-effects stay observable.
    server_ids:
        Crash/straggle victims are drawn from these.
    fault_rate:
        Expected faults per simulated second (``rate × 0.7 × duration``
        events in expectation, Poisson-drawn).
    min_outage / max_outage:
        Uniform bounds on each fault's active window. ``min_outage``
        must exceed the failure detector's declaration bound, otherwise
        a crash can heal before anyone notices it.
    kinds:
        Subset of :data:`FaultKind.ALL` to draw from.
    straggle_factor:
        Power multiplier applied by straggler faults.
    link_profile:
        ``(drop, dup, extra_delay)`` used by link-fault windows.
    """
    if fault_rate < 0:
        raise ValueError(f"fault_rate must be >= 0, got {fault_rate}")
    if not 0 < min_outage <= max_outage:
        raise ValueError(
            f"need 0 < min_outage <= max_outage, got {min_outage}/{max_outage}"
        )
    for kind in kinds:
        if kind not in FaultKind.ALL:
            raise ValueError(f"unknown fault kind {kind!r}")
    rng = StreamRegistry(seed).stream("fault-schedule")
    window = 0.7 * duration
    n_faults = int(rng.poisson(fault_rate * window)) if fault_rate > 0 else 0
    servers = list(server_ids)
    events: List[FaultEvent] = []
    for _ in range(n_faults):
        t = float(rng.uniform(0.05 * duration, window))
        kind = kinds[int(rng.integers(0, len(kinds)))]
        outage = float(rng.uniform(min_outage, max_outage))
        if kind == FaultKind.CRASH:
            victim = servers[int(rng.integers(0, len(servers)))]
            events.append(FaultEvent(t, kind, target=victim, duration=outage))
        elif kind == FaultKind.DELEGATE_CRASH:
            events.append(FaultEvent(t, kind, duration=outage))
        elif kind == FaultKind.PARTITION:
            victim = servers[int(rng.integers(0, len(servers)))]
            events.append(FaultEvent(t, kind, target=(victim,), duration=outage))
        elif kind == FaultKind.STRAGGLE:
            victim = servers[int(rng.integers(0, len(servers)))]
            events.append(
                FaultEvent(t, kind, target=victim, duration=outage, params=(straggle_factor,))
            )
        else:  # LINK_FAULTS
            events.append(FaultEvent(t, kind, duration=outage, params=link_profile))
    return FaultSchedule(events=tuple(events))
