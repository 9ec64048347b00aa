"""Run recordings — the material the digital twin replays.

A live service run leaves two timelines behind:

* the **control timeline** (:class:`EpochRecord` / :class:`MembershipRecord`,
  kept by the locator): per epoch, the exact
  :class:`~repro.core.tuning.LatencyReport` batch the controller saw
  and the region lengths it produced;
* the **request timeline** (:class:`RequestTrace`, kept by the load
  generators): every logical request's file set, arrival offset, work,
  outcome, and measured latency.

:class:`ServiceRecording` bundles both with the run's static identity
(powers, hash seed, epoch length). The twin harness replays the
control timeline *exactly* (same reports -> same controller -> same
lengths, to float precision) and the request timeline *approximately*
(through the discrete-event simulator, judged against a tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

from ..core.tuning import LatencyReport

__all__ = [
    "EpochRecord",
    "MembershipRecord",
    "RequestTrace",
    "ServiceRecording",
]


@dataclass(frozen=True)
class EpochRecord:
    """One live tuning epoch: what the controller saw and decided."""

    index: int
    #: Epoch window in seconds since the run started.
    window: Tuple[float, float]
    #: The exact report batch fed to ``ANUManager.tune``.
    reports: Tuple[LatencyReport, ...]
    #: The delegate's system average this epoch (``nan`` if all idle).
    average_latency: float
    #: Region lengths after the tuning round.
    lengths_after: Dict[str, float]
    #: File sets that changed servers in the round.
    moved: int


@dataclass(frozen=True)
class MembershipRecord:
    """One live membership event (join / leave / kill)."""

    kind: str  # "join" | "leave" | "kill"
    server_id: str
    #: Seconds since the run started.
    time: float
    lengths_after: Dict[str, float]


@dataclass(frozen=True)
class RequestTrace:
    """One logical request as the load generator drove it."""

    fileset: str
    #: Scheduled arrival, seconds since the run started.
    arrival: float
    work: float
    #: Serving server id (``None`` when the request failed outright).
    server: Union[str, None]
    #: Measured end-to-end latency in seconds (``nan`` on failure).
    latency: float
    ok: bool


@dataclass
class ServiceRecording:
    """Everything needed to rebuild a live run inside the simulator."""

    server_powers: Dict[str, float]
    hash_seed: int
    epoch_seconds: float
    time_scale: float
    #: Membership at run start (``server_powers`` gains joiners later).
    initial_servers: Tuple[str, ...] = ()
    #: Region lengths at run start (equal split under ANU).
    initial_lengths: Dict[str, float] = field(default_factory=dict)
    #: Control timeline in wall-clock order.
    events: List[Union[EpochRecord, MembershipRecord]] = field(default_factory=list)
    #: Request timeline (unordered; sort by ``arrival`` to replay).
    requests: List[RequestTrace] = field(default_factory=list)

    @property
    def epochs(self) -> List[EpochRecord]:
        """The tuning epochs of the control timeline, in order."""
        return [e for e in self.events if isinstance(e, EpochRecord)]

    def live_trajectory(self) -> List[Dict[str, float]]:
        """Per-epoch region-length vectors of the live run."""
        return [dict(e.lengths_after) for e in self.epochs]
