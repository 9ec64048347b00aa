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

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..cluster.fileset import FileSetCatalog
from ..cluster.request import MetadataRequest
from ..sim.rng import StreamRegistry
from .calibrate import request_work_for_utilization
from .distributions import arrival_times_from_gaps, lognormal_work, pareto_gaps

__all__ = ["Workload", "SyntheticConfig", "generate_synthetic"]

#: Rows :meth:`Workload.replay` converts to Python values at a time.
_REPLAY_CHUNK = 4096


class Workload:
    """An immutable request schedule plus its file-set catalog.

    The schedule is three arrival-sorted columns: :attr:`arrivals` and
    :attr:`works` (float64) and :attr:`fs_idx` (int32, indexing
    ``catalog.names``). Both engines read them: the vectorized path
    slices them per cohort, the scalar path draws fresh requests from
    :meth:`replay`, and prescient policies' oracle query
    (:meth:`work_between`) is O(log n) per window rather than a scan.

    Producers hand the columns over in any order; they are put in
    arrival order by a stable sort, so requests that arrive at the same
    instant keep the producer's order.
    """

    def __init__(
        self,
        name: str,
        catalog: FileSetCatalog,
        arrivals: np.ndarray,
        works: np.ndarray,
        fs_idx: np.ndarray,
        duration: float,
    ) -> None:
        duration = float(duration)
        if not (math.isfinite(duration) and duration > 0):
            raise ValueError(f"duration must be finite and > 0, got {duration}")
        arrivals = np.asarray(arrivals, dtype=np.float64)
        works = np.asarray(works, dtype=np.float64)
        fs_idx = np.asarray(fs_idx, dtype=np.int32)
        if not arrivals.shape == works.shape == fs_idx.shape:
            raise ValueError("schedule columns differ in shape")
        if (arrivals[1:] < arrivals[:-1]).any():
            order = np.argsort(arrivals, kind="stable")
            arrivals, works, fs_idx = arrivals[order], works[order], fs_idx[order]
        self.name = name
        self.catalog = catalog
        self.arrivals = arrivals
        self.works = works
        self.fs_idx = fs_idx
        self.duration = duration

    # ------------------------------------------------------------------ #
    def fork(self) -> "Workload":
        """This workload: a run replays it and never writes into it."""
        return self

    def replay(self) -> Iterator[MetadataRequest]:
        """The schedule as fresh requests, each built as it is drawn.

        Requests carry per-run mutable state (``server``,
        ``service_start``, ``completion``), so every replay builds its
        own: one workload can be run any number of times. A request
        lives only from its arrival to its completion, and the columns
        are read a chunk at a time.
        """
        name_of = self.catalog.names.__getitem__
        for lo in range(0, len(self), _REPLAY_CHUNK):
            hi = lo + _REPLAY_CHUNK
            yield from map(
                MetadataRequest,
                map(name_of, self.fs_idx[lo:hi].tolist()),
                self.arrivals[lo:hi].tolist(),
                self.works[lo:hi].tolist(),
            )

    def __len__(self) -> int:
        return int(self.arrivals.shape[0])

    @property
    def total_work(self) -> float:
        """Total offered work units across all requests."""
        return float(self.works.sum())

    @property
    def request_count(self) -> int:
        """Number of requests in the schedule."""
        return len(self)

    def work_between(self, t0: float, t1: float) -> Dict[str, float]:
        """Per-file-set work offered in ``[t0, t1)`` — the oracle query."""
        lo = int(np.searchsorted(self.arrivals, t0, side="left"))
        hi = int(np.searchsorted(self.arrivals, t1, side="left"))
        names = self.catalog.names
        sums = np.bincount(
            self.fs_idx[lo:hi], weights=self.works[lo:hi], minlength=len(names)
        )
        return dict(zip(names, sums.tolist()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return (
            f"<Workload {self.name!r} requests={len(self)} "
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
    arrivals, works, fs_idx, totals = gap_train_columns(
        registry, "synthetic", n_j, config.duration, config.pareto_alpha,
        mean_work, config.work_sigma,
    )
    return Workload(
        name=f"synthetic(seed={seed})",
        catalog=FileSetCatalog(
            [f"/fs/{j:04d}" for j in range(config.n_filesets)], totals, n_j
        ),
        arrivals=arrivals,
        works=works,
        fs_idx=fs_idx,
        duration=config.duration,
    )


def gap_train_columns(
    registry: StreamRegistry,
    tag: str,
    n_j: np.ndarray,
    duration: float,
    alpha: float,
    mean_work: float,
    sigma: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[float]]:
    """One Pareto gap train and lognormal work draw per file set.

    File set ``j`` issues ``n_j[j]`` requests spread over most of
    ``duration`` (steps 3 and 4 of this module's recipe), drawn from the
    ``tag/arrivals``, ``tag/work`` and ``tag/span`` streams. Returns the
    ``(arrivals, works, fs_idx)`` columns in file-set order, not yet
    arrival-sorted, and each file set's total work.
    """
    arrival_streams = registry.spawn(f"{tag}/arrivals", len(n_j))
    work_streams = registry.spawn(f"{tag}/work", len(n_j))
    span_rng = registry.stream(f"{tag}/span")
    arrivals, works, totals = [], [], []
    for j, n in enumerate(n_j.tolist()):
        gaps = pareto_gaps(arrival_streams[j], n, alpha)
        span = float(span_rng.uniform(0.95, 0.999))
        arrivals.append(arrival_times_from_gaps(gaps, duration, span))
        works.append(lognormal_work(work_streams[j], n, mean_work, sigma))
        totals.append(float(works[-1].sum()))
    fs_idx = np.repeat(np.arange(len(n_j), dtype=np.int32), n_j)
    return np.concatenate(arrivals), np.concatenate(works), fs_idx, totals
