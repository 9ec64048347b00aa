"""The instrumentation bus: typed probes the engine layers publish to.

Every layer of a :class:`~repro.engine.engine.ClusterEngine` — the
kernel-facing drivers, the servers, the control plane, and the fault
layer — reports what happened by publishing a small frozen dataclass
(a *probe event*) onto one :class:`ProbeBus`. Results are no longer
collected ad hoc inside each driver: the canonical
:class:`~repro.engine.record.RunRecord` is itself just a subscriber
(:class:`~repro.engine.record.RunRecorder`), and any other
:class:`Observer` attaches the same way without touching the engine.

Probe catalog
-------------
Lifecycle
    :class:`RunStarted`, :class:`RunCompleted`
Client path
    :class:`RequestCompleted` (opt-in, hot), :class:`RequestDropped`,
    :class:`RequestFailed`
Control plane
    :class:`MovesApplied`, :class:`RelocationApplied`,
    :class:`DelegateElected`
Membership & faults
    :class:`ServerFailed`, :class:`ServerRecovered`,
    :class:`FaultInjected`, :class:`FailureDeclared`,
    :class:`RecoveryDeclared`, :class:`InvariantAudit`

Performance contract: publishing an event with no subscriber costs one
dict lookup. The only per-request event, :class:`RequestCompleted`, is
not even *constructed* unless someone subscribed before the engine was
built (or :meth:`ClusterEngine.enable_completion_probe` was called) —
the figure runs therefore pay nothing for the bus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Type

__all__ = [
    "ProbeEvent",
    "RunStarted",
    "RunCompleted",
    "RequestCompleted",
    "RequestDropped",
    "RequestFailed",
    "MovesApplied",
    "RelocationApplied",
    "DelegateElected",
    "ServerFailed",
    "ServerRecovered",
    "FaultInjected",
    "FailureDeclared",
    "RecoveryDeclared",
    "InvariantAudit",
    "ProbeBus",
    "Observer",
]


# ---------------------------------------------------------------------- #
# events
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ProbeEvent:
    """Base of every probe event; ``time`` is simulated seconds."""

    time: float


@dataclass(frozen=True)
class RunStarted(ProbeEvent):
    """The engine finished assembly and the calendar is about to run."""

    policy_name: str
    n_servers: int


@dataclass(frozen=True)
class RunCompleted(ProbeEvent):
    """The run reached its horizon."""

    events_processed: int


@dataclass(frozen=True)
class RequestCompleted(ProbeEvent):
    """One metadata request finished service (hot: opt-in only)."""

    server_id: object
    fileset: str
    latency: float


@dataclass(frozen=True)
class RequestDropped(ProbeEvent):
    """The basic client path had no live owner and dropped a request."""

    fileset: str


@dataclass(frozen=True)
class RequestFailed(ProbeEvent):
    """The hardened client path exhausted every retry for a request."""

    fileset: str


@dataclass(frozen=True)
class MovesApplied(ProbeEvent):
    """One reconfiguration (tuning round, failure, or recovery)."""

    round_index: int
    kind: str
    moves: int
    moved_work_share: float


@dataclass(frozen=True)
class RelocationApplied(ProbeEvent):
    """One reconfiguration's resolution work (epoch-delta accounting).

    Complements :class:`MovesApplied`: ``moves`` there counts the
    names that changed owner, ``relocated`` here counts the names the
    policy actually *re-resolved* to find out — the quantity the
    incremental relocation path shrinks. ``mode`` is the policy's
    relocation strategy (``incremental``/``full``/``native``) and
    ``seconds`` the wall-clock the reshuffle cost.
    """

    kind: str
    relocated: int
    catalog_size: int
    seconds: float
    mode: str


@dataclass(frozen=True)
class DelegateElected(ProbeEvent):
    """A delegate took office (``failover`` marks forced re-elections)."""

    delegate_id: object
    failover: bool


@dataclass(frozen=True)
class ServerFailed(ProbeEvent):
    """A server left the data plane (scheduled churn or injected fault)."""

    server_id: object


@dataclass(frozen=True)
class ServerRecovered(ProbeEvent):
    """A server rejoined the data plane."""

    server_id: object


@dataclass(frozen=True)
class FaultInjected(ProbeEvent):
    """The fault layer applied one scheduled fault."""

    kind: str
    target: object


@dataclass(frozen=True)
class FailureDeclared(ProbeEvent):
    """The failure detector declared a peer failed."""

    server_id: object


@dataclass(frozen=True)
class RecoveryDeclared(ProbeEvent):
    """The failure detector un-declared a previously failed peer."""

    server_id: object


@dataclass(frozen=True)
class InvariantAudit(ProbeEvent):
    """One invariant sweep ran (``trigger`` names what caused it)."""

    trigger: str
    violations: int


# ---------------------------------------------------------------------- #
# the bus
# ---------------------------------------------------------------------- #
class ProbeBus:
    """Synchronous typed pub/sub with exact-type dispatch.

    Subscribers are plain callables ``fn(event)``; dispatch is by the
    event's exact class (no subclass fan-out — the catalog is flat by
    design). Subscribing to :class:`ProbeEvent` itself receives *every*
    event, after the exact-type subscribers.
    """

    def __init__(self) -> None:
        self._subs: Dict[Type[ProbeEvent], List[Callable[[ProbeEvent], None]]] = {}
        #: Events published so far, by type name (cheap diagnostics).
        self.published: Dict[str, int] = {}

    def subscribe(
        self, event_type: Type[ProbeEvent], fn: Callable[[ProbeEvent], None]
    ) -> Callable[[ProbeEvent], None]:
        """Register ``fn`` for ``event_type``; returns ``fn`` (for unsubscribe)."""
        if not (isinstance(event_type, type) and issubclass(event_type, ProbeEvent)):
            raise TypeError(f"not a probe event type: {event_type!r}")
        self._subs.setdefault(event_type, []).append(fn)
        return fn

    def unsubscribe(
        self, event_type: Type[ProbeEvent], fn: Callable[[ProbeEvent], None]
    ) -> None:
        """Remove one registration (no-op if absent)."""
        subs = self._subs.get(event_type)
        if subs and fn in subs:
            subs.remove(fn)

    def wants(self, event_type: Type[ProbeEvent]) -> bool:
        """``True`` if anyone subscribed to ``event_type`` (or to all)."""
        return bool(self._subs.get(event_type)) or bool(self._subs.get(ProbeEvent))

    def publish(self, event: ProbeEvent) -> None:
        """Deliver ``event`` to its exact-type and wildcard subscribers."""
        cls = type(event)
        self.published[cls.__name__] = self.published.get(cls.__name__, 0) + 1
        subs = self._subs.get(cls)
        if subs:
            for fn in subs:
                fn(event)
        wildcard = self._subs.get(ProbeEvent)
        if wildcard:
            for fn in wildcard:
                fn(event)


class Observer:
    """Base class for bundled subscribers.

    Subclasses declare :attr:`subscriptions` — a mapping of event type
    to bound-method *name* — and :meth:`attach` wires them onto a bus.
    """

    #: event type -> handler method name
    subscriptions: Dict[Type[ProbeEvent], str] = {}

    def attach(self, bus: ProbeBus) -> "Observer":
        """Subscribe every declared handler; returns ``self``."""
        for event_type, method_name in self.subscriptions.items():
            bus.subscribe(event_type, getattr(self, method_name))
        return self
