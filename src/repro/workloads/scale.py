"""Planet-scale workloads.

The paper's generator (:mod:`repro.workloads.synthetic`) draws one Pareto
gap train per file set — right for 50 file sets, hopeless for a million.
This module draws the whole schedule at once, as the same columns every
:class:`~repro.workloads.synthetic.Workload` holds (arrival, work,
file-set index), so either engine can run it; at this size only the
vectorized client path is fast enough to.

Documented deviations from the §5.1 recipe, both deliberate at scale:

* File-set weights are Pareto (heavy-tailed), not ``U[1,10]`` — at a
  million file sets the interesting regime is skewed popularity, and
  the uniform draw concentrates to its mean.
* Arrivals are uniform over the run rather than per-file-set Pareto
  gap trains: burst microstructure is dropped, offered *rates* are
  preserved. The per-interval load each policy must balance is the
  same; generating 1M independent gap trains is what's intractable.

File-set indices come from one inverse-CDF draw
(:func:`~repro.workloads.distributions.weighted_indices`, a guide
table over the popularity CDF) as an ``int32`` column — half the bytes
of int64 at 20M requests, and the width :class:`Workload` holds, so it
takes the column without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.fileset import FileSetCatalog
from ..sim.rng import StreamRegistry
from .calibrate import request_work_for_utilization
from .distributions import lognormal_work, weighted_indices
from .synthetic import Workload

__all__ = ["ScaleConfig", "generate_scale"]

#: ``bench/engine_workloads.py`` imports this name; it goes when that
#: file next changes.
ArrayWorkload = Workload


@dataclass(frozen=True)
class ScaleConfig:
    """Parameters of the planet-scale workload generator.

    ``utilization`` and ``total_capacity`` calibrate mean request work
    exactly as the paper-scale generator does; ``weight_alpha`` shapes
    the Pareto popularity tail (smaller = heavier).
    """

    n_filesets: int = 1_000_000
    target_requests: int = 20_000_000
    duration: float = 1_200.0
    weight_alpha: float = 1.2
    work_sigma: float = 0.25
    utilization: float = 0.6
    total_capacity: float = 5_000.0

    def __post_init__(self) -> None:
        if self.n_filesets < 1:
            raise ValueError("need at least one file set")
        if self.target_requests < 1:
            raise ValueError("need at least one request")
        if self.weight_alpha <= 0:
            raise ValueError(f"weight_alpha must be > 0, got {self.weight_alpha}")
        if not 0 < self.utilization:
            raise ValueError(f"utilization must be > 0, got {self.utilization}")


def generate_scale(config: ScaleConfig = ScaleConfig(), seed: int = 0) -> Workload:
    """Generate a planet-scale workload, fully vectorized.

    Deterministic in ``(config, seed)`` via the repo's seed-stream
    registry. Request count equals ``target_requests`` exactly (the
    multinomial split over file sets replaces per-file-set rounding).
    """
    registry = StreamRegistry(seed)
    m = config.n_filesets
    n = config.target_requests
    # Heavy-tailed file-set popularity.
    weights = 1.0 + registry.stream("scale/weights").pareto(config.weight_alpha, m)
    fs_idx = weighted_indices(registry.stream("scale/filesets"), weights, n)
    arrivals = np.sort(registry.stream("scale/arrivals").uniform(0.0, config.duration, n))
    mean_work = request_work_for_utilization(
        n, config.duration, config.total_capacity, config.utilization
    )
    works = lognormal_work(
        registry.stream("scale/work"), n, mean_work, config.work_sigma
    )
    # fs_idx is arrival-ordered only by coincidence of the draws; the
    # catalog totals are order-free bincounts.
    total_work = np.bincount(fs_idx, weights=works, minlength=m)
    n_requests = np.bincount(fs_idx, minlength=m)
    names = [f"/fs/{i:07d}" for i in range(m)]
    return Workload(
        name=f"scale(m={m}, n={n}, seed={seed})",
        catalog=FileSetCatalog(names, total_work, n_requests),
        arrivals=arrivals,
        works=works,
        fs_idx=fs_idx,
        duration=config.duration,
    )
