"""Metadata requests — the short tasks the file servers serve.

"In a typical access, [the] client sends a metadata request to a file
server. The server sends the location information and file handler of
the specified file(s) back to the client. Then the client fetches data
directly from the disk across the storage area network." (§3)

Only the metadata leg loads the file servers; the data leg goes to the
shared disks (:mod:`repro.cluster.disk`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["MetadataRequest"]


@dataclass(slots=True)
class MetadataRequest:
    """One metadata operation against a file set.

    Life cycle fields are filled in by the simulation as the request
    flows through: ``server`` at routing, ``service_start`` when it
    reaches the head of the server's FIFO queue, ``completion`` when
    service finishes.

    Attributes
    ----------
    fileset:
        Name of the target file set (routing key).
    arrival:
        Simulated arrival time (seconds).
    work:
        Service demand in work units; a server of power ``p`` serves it
        in ``work / p`` seconds (before cache effects).
    """

    fileset: str
    arrival: float
    work: float
    server: Optional[object] = None
    service_start: Optional[float] = None
    completion: Optional[float] = None
    #: Optional hook invoked as ``on_complete(request)`` by the serving
    #: server the moment service finishes (used by clients awaiting the
    #: metadata leg before starting the data leg).
    on_complete: Optional[callable] = None

    @property
    def done(self) -> bool:
        """``True`` once service has completed."""
        return self.completion is not None

    @property
    def latency(self) -> float:
        """Response time: completion − arrival (``nan`` while pending).

        This is the paper's performance metric — "we use latency as the
        performance metric — a natural choice as the metadata workload
        consists of little data and short-lived transactions" (§4).
        """
        if self.completion is None:
            return math.nan
        return self.completion - self.arrival

    @property
    def queue_delay(self) -> float:
        """Time spent waiting in the FIFO queue (``nan`` while queued)."""
        if self.service_start is None:
            return math.nan
        return self.service_start - self.arrival
