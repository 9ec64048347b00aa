"""Control-plane message types.

The ANU control loop exchanges three kinds of messages (§4): servers
*report* interval latencies to the delegate, the delegate *distributes*
the new mapping of servers to the unit interval, and shedding servers
*notify* gainers that they are acquiring workload. Failure detection
adds its heartbeat kinds. Election sends nothing: every node applies
the same rule to the live membership
(:func:`repro.distributed.election.elect`).

Messages carry an estimated wire size so experiments can account for
control-plane traffic alongside shared-state size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["Message", "MessageKind"]


class MessageKind:
    """String constants for message kinds (a closed vocabulary)."""

    REPORT = "report"            # server -> delegate: LatencyReport
    MAPPING = "mapping"          # delegate -> all: new interval mapping
    SHED_NOTIFY = "shed-notify"  # releasing server -> acquiring server
    HEARTBEAT = "heartbeat"      # liveness probe
    HEARTBEAT_ACK = "heartbeat-ack"

    ALL = (
        REPORT,
        MAPPING,
        SHED_NOTIFY,
        HEARTBEAT,
        HEARTBEAT_ACK,
    )


_SEQ = itertools.count()

#: Rough wire-size estimates (bytes) per message kind, used for
#: control-traffic accounting. A report is a few numbers; a mapping is
#: O(k) region descriptors (sized at send time); notifications and
#: probes are small fixed-size frames.
_BASE_SIZE = {
    MessageKind.REPORT: 48,
    MessageKind.MAPPING: 24,  # plus 24 per region entry (payload-sized)
    MessageKind.SHED_NOTIFY: 64,
    MessageKind.HEARTBEAT: 8,
    MessageKind.HEARTBEAT_ACK: 8,
}


@dataclass
class Message:
    """One control-plane message."""

    src: object
    dst: object
    kind: str
    payload: Any = None
    sent_at: float = 0.0
    seq: int = field(default_factory=lambda: next(_SEQ))

    def __post_init__(self) -> None:
        if self.kind not in MessageKind.ALL:
            raise ValueError(f"unknown message kind {self.kind!r}")

    @property
    def wire_size(self) -> int:
        """Estimated bytes on the wire."""
        size = _BASE_SIZE[self.kind]
        if self.kind == MessageKind.MAPPING and self.payload is not None:
            try:
                size += 24 * sum(len(v) for v in self.payload.values())
            except (TypeError, AttributeError):
                size += 24 * len(self.payload)
        return size

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return f"<Message #{self.seq} {self.kind} {self.src!r}->{self.dst!r}>"
