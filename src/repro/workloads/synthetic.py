"""The paper's synthetic workload (§5.1) and the :class:`Workload` container.

"The synthetic workload consists of 66,401 requests against 50 file
sets in a period of two hundred minutes. The request inter-arrival
times in each file set are governed by a Pareto distribution that is
heavy-tailed." (§5.2.1) "The total amount of workload in each file set
is defined as Xc where X is randomly chosen from interval [1,10] and c
is a scaling factor tuned to avoid overload of the whole system." (§5.1)

Generation recipe (documented for auditability):

1. Draw ``X_j ~ U[1, 10]`` per file set; allocate the request budget
   proportionally (``N_j ∝ X_j``), so a file set's workload share is
   its ``X`` share.
2. Calibrate the mean per-request work so total offered load is a
   chosen fraction of total cluster capacity
   (:func:`repro.workloads.calibrate.request_work_for_utilization`).
3. Per file set, draw ``N_j`` Pareto(α) gaps and rescale them to span
   the experiment duration — burst structure preserved, rate pinned.
4. Draw per-request work lognormally around the calibrated mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

import numpy as np

from ..cluster.fileset import FileSet, FileSetCatalog
from ..cluster.request import MetadataRequest
from ..sim.rng import StreamRegistry
from .calibrate import request_work_for_utilization
from .distributions import arrival_times_from_gaps, lognormal_work, pareto_gaps

__all__ = ["Workload", "SyntheticConfig", "generate_synthetic"]


class Workload:
    """An immutable request schedule plus its file-set catalog.

    The schedule is held as arrival-sorted template :attr:`requests`,
    which runs copy as they replay them (:meth:`replay`) and never
    write into, and as NumPy columns that answer the oracle queries
    prescient policies need (:meth:`work_between`) — O(log n) per
    window rather than a scan.
    """

    def __init__(
        self,
        name: str,
        catalog: FileSetCatalog,
        requests: List[MetadataRequest],
        duration: float,
    ) -> None:
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        self.name = name
        self.catalog = catalog
        self.requests = sorted(requests, key=lambda r: r.arrival)
        self.duration = float(duration)
        # Columnar views for vectorized oracle queries.
        self._fs_names = catalog.names
        fs_index = {n: i for i, n in enumerate(self._fs_names)}
        self._arrivals = np.array([r.arrival for r in self.requests], dtype=np.float64)
        self._works = np.array([r.work for r in self.requests], dtype=np.float64)
        self._fs_idx = np.array(
            [fs_index[r.fileset] for r in self.requests], dtype=np.int64
        )

    # ------------------------------------------------------------------ #
    def fork(self) -> "Workload":
        """This workload: a run replays it and never writes into it."""
        return self

    def replay(self) -> Iterator[MetadataRequest]:
        """The schedule as fresh requests, each built as it is drawn.

        Requests carry per-run mutable state (``server``,
        ``service_start``, ``completion``), so a run stamps the copies
        this iterator builds, never :attr:`requests`: one workload can
        be run any number of times. A copy shares its template's field
        objects, and lives only from its arrival to its completion.
        """
        return (MetadataRequest(r.fileset, r.arrival, r.work) for r in self.requests)

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def total_work(self) -> float:
        """Total offered work units across all requests."""
        return float(self._works.sum())

    @property
    def request_count(self) -> int:
        """Number of requests in the schedule."""
        return len(self.requests)

    def work_between(self, t0: float, t1: float) -> Dict[str, float]:
        """Per-file-set work offered in ``[t0, t1)`` — the oracle query."""
        lo = int(np.searchsorted(self._arrivals, t0, side="left"))
        hi = int(np.searchsorted(self._arrivals, t1, side="left"))
        sums = np.bincount(
            self._fs_idx[lo:hi],
            weights=self._works[lo:hi],
            minlength=len(self._fs_names),
        )
        return dict(zip(self._fs_names, sums.tolist()))

    def work_matrix(self, interval: float) -> np.ndarray:
        """``(n_intervals, n_filesets)`` matrix of offered work per interval."""
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        n_int = int(np.ceil(self.duration / interval))
        idx = np.minimum((self._arrivals / interval).astype(np.int64), n_int - 1)
        flat = idx * len(self._fs_names) + self._fs_idx
        sums = np.bincount(
            flat, weights=self._works, minlength=n_int * len(self._fs_names)
        )
        return sums.reshape(n_int, len(self._fs_names))

    def rate_per_fileset(self) -> Dict[str, float]:
        """Long-run offered work rate (units/second) per file set."""
        return {
            name: fs.total_work / self.duration for name, fs in
            ((n, self.catalog.get(n)) for n in self._fs_names)
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return (
            f"<Workload {self.name!r} requests={len(self.requests)} "
            f"filesets={len(self.catalog)} duration={self.duration}s>"
        )


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the §5.1 synthetic workload (paper defaults).

    ``utilization`` is the calibration target for the paper's ``c``:
    total offered work as a fraction of total cluster capacity.
    """

    n_filesets: int = 50
    duration: float = 12_000.0  # 200 minutes
    target_requests: int = 66_401
    x_low: float = 1.0
    x_high: float = 10.0
    pareto_alpha: float = 1.5
    work_sigma: float = 0.25
    utilization: float = 0.6
    total_capacity: float = 25.0  # powers {1,3,5,7,9}

    def __post_init__(self) -> None:
        if self.n_filesets < 1:
            raise ValueError("need at least one file set")
        if self.target_requests < self.n_filesets:
            raise ValueError("need at least one request per file set")
        if not 0 < self.x_low <= self.x_high:
            raise ValueError(f"bad X interval [{self.x_low}, {self.x_high}]")


def generate_synthetic(
    config: SyntheticConfig = SyntheticConfig(),
    seed: int = 0,
) -> Workload:
    """Generate the synthetic workload of §5.1.

    Deterministic in ``(config, seed)``. The realized request count is
    within rounding of ``config.target_requests`` (per-file-set budgets
    are rounded, matching how a real generator lands near its target).
    """
    registry = StreamRegistry(seed)
    rng_x = registry.stream("synthetic/x")
    # 1. file-set weights X ~ U[1,10]
    x = rng_x.uniform(config.x_low, config.x_high, size=config.n_filesets)
    # 2. request budget proportional to X (>= 1 each)
    n_j = np.maximum(1, np.rint(config.target_requests * x / x.sum()).astype(int))
    total_requests = int(n_j.sum())
    mean_work = request_work_for_utilization(
        total_requests, config.duration, config.total_capacity, config.utilization
    )
    arrival_streams = registry.spawn("synthetic/arrivals", config.n_filesets)
    work_streams = registry.spawn("synthetic/work", config.n_filesets)
    span_rng = registry.stream("synthetic/span")

    requests: List[MetadataRequest] = []
    filesets: List[FileSet] = []
    for j in range(config.n_filesets):
        name = f"/fs/{j:04d}"
        n = int(n_j[j])
        gaps = pareto_gaps(arrival_streams[j], n, config.pareto_alpha)
        span = float(span_rng.uniform(0.95, 0.999))
        arrivals = arrival_times_from_gaps(gaps, config.duration, span)
        works = lognormal_work(work_streams[j], n, mean_work, config.work_sigma)
        for t, w in zip(arrivals, works):
            requests.append(MetadataRequest(fileset=name, arrival=float(t), work=float(w)))
        filesets.append(
            FileSet(name=name, total_work=float(works.sum()), n_requests=n)
        )
    catalog = FileSetCatalog(filesets)
    return Workload(
        name=f"synthetic(seed={seed})",
        catalog=catalog,
        requests=requests,
        duration=config.duration,
    )
