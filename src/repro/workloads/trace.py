"""Trace-shaped workload: the DFSTrace substitute.

The paper sanity-checks its synthetic results against "a one-hour
DFSTrace workload that contains 21 file sets and 112,590 requests"
(§5.1, Figure 4). DFSTrace (the CMU Coda traces) is not redistributable
here, so — per the substitution policy in DESIGN.md — we generate a
workload matching its published aggregate shape:

* 21 file sets, 112,590 requests, 3600 seconds;
* activity concentrated on a few hot subtrees (Zipf popularity — file
  system traces are strongly skewed by volume);
* bursty arrivals (Pareto gaps with a heavier tail than the synthetic
  workload, α = 1.3, reflecting the open/stat storms of real clients).

The paper uses the trace only to show "the same scaling and tuning
properties on real workloads" as the synthetic runs; a generator that
matches the skew/burstiness envelope exercises exactly the same code
paths. Real traces can be substituted through
:mod:`repro.workloads.io`'s trace-file reader.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.fileset import FileSetCatalog
from ..sim.rng import StreamRegistry
from .calibrate import request_work_for_utilization
from .distributions import zipf_weights
from .synthetic import Workload, gap_train_columns

__all__ = ["TraceConfig", "generate_trace_shaped"]


@dataclass(frozen=True)
class TraceConfig:
    """Parameters of the DFSTrace-shaped workload (published aggregates)."""

    n_filesets: int = 21
    duration: float = 3_600.0  # one hour
    target_requests: int = 112_590
    #: Zipf exponent of file-set popularity. 0.8 keeps a clear hot-set
    #: skew while the hottest subtree (~15% of load) remains servable
    #: by more than one machine of the paper's cluster — with s = 1.0
    #: the top subtree alone (>25% of load) exceeds every server but
    #: the two largest, a harsher regime than DFSTrace represents.
    zipf_s: float = 0.8
    pareto_alpha: float = 1.3
    work_sigma: float = 0.35
    utilization: float = 0.55
    total_capacity: float = 25.0

    def __post_init__(self) -> None:
        if self.n_filesets < 1:
            raise ValueError("need at least one file set")
        if self.target_requests < self.n_filesets:
            raise ValueError("need at least one request per file set")


def generate_trace_shaped(
    config: TraceConfig = TraceConfig(),
    seed: int = 0,
) -> Workload:
    """Generate the DFSTrace-shaped workload.

    Deterministic in ``(config, seed)``. File-set request budgets follow
    Zipf popularity with a small uniform perturbation (real traces are
    Zipf-ish, not exactly Zipf), then the same Pareto-gap/lognormal-work
    machinery as the synthetic generator.
    """
    registry = StreamRegistry(seed)
    perturb = registry.stream("trace/perturb")
    weights = zipf_weights(config.n_filesets, config.zipf_s)
    weights = weights * perturb.uniform(0.8, 1.2, size=config.n_filesets)
    weights = weights / weights.sum()
    n_j = np.maximum(
        1, np.rint(config.target_requests * weights).astype(int)
    )
    total_requests = int(n_j.sum())
    mean_work = request_work_for_utilization(
        total_requests, config.duration, config.total_capacity, config.utilization
    )
    arrivals, works, fs_idx, totals = gap_train_columns(
        registry, "trace", n_j, config.duration, config.pareto_alpha,
        mean_work, config.work_sigma,
    )
    return Workload(
        name=f"trace-shaped(seed={seed})",
        catalog=FileSetCatalog(
            [f"/vol/{j:03d}" for j in range(config.n_filesets)], totals, n_j
        ),
        arrivals=arrivals,
        works=works,
        fs_idx=fs_idx,
        duration=config.duration,
    )
