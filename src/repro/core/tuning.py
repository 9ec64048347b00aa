"""Tuning-round primitives shared by every tuning rule.

Each tuning interval, every server reports its latency
(:class:`LatencyReport`); the delegate averages the reports with one of
:data:`AVERAGING_RULES`, and a :class:`repro.control.Controller` turns
them into region lengths (the paper's rule is
:class:`~repro.control.multiplicative.MultiplicativeController`).
:class:`IncompetenceDetector` flags servers a rule has parked. These
live in ``repro.core`` because core modules import them at module
level, and ``repro.core`` importing ``repro.control`` that way would
make the two packages import each other during startup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Set

from .errors import ConfigurationError

__all__ = [
    "LatencyReport",
    "arithmetic_mean",
    "weighted_mean",
    "trimmed_mean",
    "AVERAGING_RULES",
    "IncompetenceDetector",
]


@dataclass(frozen=True)
class LatencyReport:
    """One server's performance report for a tuning interval.

    Attributes
    ----------
    server_id:
        Reporting server.
    mean_latency:
        Mean request latency (seconds) over the interval; ``nan`` when
        no requests completed.
    request_count:
        Number of requests completed in the interval.
    window:
        ``(start, end)`` of the interval in simulated time; purely
        diagnostic.
    """

    server_id: object
    mean_latency: float
    request_count: int = 0
    window: tuple = (0.0, 0.0)
    #: Consecutive idle intervals *including this one* (0 when active).
    #: Tracked by the reporting server, so the delegate can apply idle
    #: backoff while remaining stateless itself.
    idle_rounds: int = 0
    #: Mean latency of the server's *previous* interval (``nan`` when
    #: unknown). Lets the delegate require persistence before shrinking
    #: a server — a single bursty window must not trigger shedding —
    #: while itself remaining stateless.
    prev_mean_latency: float = float("nan")

    @property
    def is_idle(self) -> bool:
        """``True`` when the server completed no requests."""
        return self.request_count == 0 or math.isnan(self.mean_latency)


# --------------------------------------------------------------------- #
# averaging rules
# --------------------------------------------------------------------- #
def arithmetic_mean(reports: Sequence[LatencyReport]) -> float:
    """Plain mean of reported latencies (every server counts equally)."""
    vals = [r.mean_latency for r in reports]
    return sum(vals) / len(vals)


def weighted_mean(reports: Sequence[LatencyReport]) -> float:
    """Request-weighted mean — the latency an average *request* saw.

    This is the default: it matches the paper's application-facing
    framing (consistent performance for the *workload*) and makes a
    nearly idle server unable to drag the system average around.
    """
    total_req = sum(r.request_count for r in reports)
    if total_req == 0:
        return arithmetic_mean(reports)
    return sum(r.mean_latency * r.request_count for r in reports) / total_req


def trimmed_mean(reports: Sequence[LatencyReport], trim: float = 0.25) -> float:
    """Mean after dropping the ``trim`` fraction at each extreme.

    Robust to a single pathological server; degenerates to the plain
    mean when fewer than ``1 / trim`` servers report.
    """
    vals = sorted(r.mean_latency for r in reports)
    k = int(len(vals) * trim)
    core = vals[k : len(vals) - k] or vals
    return sum(core) / len(core)


#: Registry used by configuration files and the ablation bench.
AVERAGING_RULES: Dict[str, Callable[[Sequence[LatencyReport]], float]] = {
    "arithmetic": arithmetic_mean,
    "weighted": weighted_mean,
    "trimmed": trimmed_mean,
}


class IncompetenceDetector:
    """Flags servers the controller has effectively parked.

    The paper: "ANU randomization identifies such incompetent components
    and notifies administrators" (§5.2.2). A server is flagged after its
    mapped region stays below ``threshold`` for ``patience`` consecutive
    tuning rounds.
    """

    def __init__(self, threshold: float = 1e-3, patience: int = 5) -> None:
        if patience < 1:
            raise ConfigurationError(f"patience must be >= 1, got {patience}")
        self.threshold = float(threshold)
        self.patience = int(patience)
        self._streak: Dict[object, int] = {}
        self._flagged: Set[object] = set()

    def observe(self, lengths: Mapping[object, float]) -> List[object]:
        """Feed one round of post-tuning lengths; returns *newly* flagged ids."""
        newly = []
        for sid, length in lengths.items():
            if length < self.threshold:
                self._streak[sid] = self._streak.get(sid, 0) + 1
                if self._streak[sid] >= self.patience and sid not in self._flagged:
                    self._flagged.add(sid)
                    newly.append(sid)
            else:
                self._streak[sid] = 0
                self._flagged.discard(sid)
        # Forget servers that left the layout.
        for sid in list(self._streak):
            if sid not in lengths:
                del self._streak[sid]
                self._flagged.discard(sid)
        return newly

    @property
    def flagged(self) -> Set[object]:
        """Servers currently flagged as incompetent."""
        return set(self._flagged)
