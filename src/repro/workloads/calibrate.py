"""Workload calibration: choosing the paper's scaling factor ``c``.

"The total amount of workload in each file set is defined as Xc where X
is randomly chosen from interval [1,10] and c is a scaling factor tuned
to avoid overload of the whole system." (§5.1)

We make the tuning explicit: given the cluster's total capacity and a
target system utilization, compute the per-request service demand (and
equivalently ``c``) that offers exactly that load. "Avoid overload of
the whole system" means total offered work must stay below total
capacity — individual servers can still overload under a bad placement
(that is the point of Figure 5's simple-randomization panel), but a
well-balanced placement must be stable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .synthetic import Workload

__all__ = [
    "request_work_for_utilization",
    "offered_utilization",
]


def request_work_for_utilization(
    n_requests: int, duration: float, total_capacity: float, utilization: float
) -> float:
    """Mean per-request work that offers ``utilization`` of total capacity.

    ``n_requests`` requests over ``duration`` seconds against an
    aggregate service rate of ``total_capacity`` work units per second:
    mean work ``w`` satisfies ``n * w / (duration * capacity) = ρ``.
    """
    if n_requests < 1:
        raise ValueError(f"n_requests must be >= 1, got {n_requests}")
    if duration <= 0 or total_capacity <= 0:
        raise ValueError("duration and total_capacity must be > 0")
    if not 0 < utilization < 1:
        raise ValueError(f"utilization must be in (0, 1), got {utilization}")
    return utilization * total_capacity * duration / n_requests


def offered_utilization(workload: "Workload", total_capacity: float) -> float:
    """Offered load of a generated workload as a fraction of capacity."""
    if total_capacity <= 0:
        raise ValueError("total_capacity must be > 0")
    return workload.total_work / (workload.duration * total_capacity)

