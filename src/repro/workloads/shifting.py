"""Non-stationary workloads: hot spots that move mid-run.

"Clusters must adapt to changing workloads and hot spots." (§3)

The §5 evaluation uses stationary demand (each file set's rate is fixed
for the whole run), which exercises adaptation to *server*
heterogeneity only. :func:`generate_shifting` produces the missing
stimulus: per-file-set popularity is re-drawn at a shift point, so a
file set that was cold becomes hot (and vice versa) halfway through.
A static placement — even a capacity-aware one — keeps the newly hot
file set wherever history put it; an adaptive system must notice and
re-home it. The hot-spot ablation bench measures exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..cluster.fileset import FileSetCatalog
from ..sim.rng import StreamRegistry
from .calibrate import request_work_for_utilization
from .synthetic import SyntheticConfig, Workload, gap_train_columns

__all__ = ["ShiftConfig", "generate_shifting"]


@dataclass(frozen=True)
class ShiftConfig:
    """Parameters of the shifting workload.

    Attributes
    ----------
    base:
        The stationary configuration each phase is generated from.
    shift_at_fraction:
        Where in the run the popularity re-draw happens (0..1).
    hot_boost:
        Phase-2 multiplier applied to a few chosen file sets' weights —
        the "hot spot". The boosted sets are drawn from the *coldest*
        phase-1 sets so the shift is maximally disruptive to static
        placements.
    n_hot:
        Number of file sets boosted in phase 2.
    """

    base: SyntheticConfig = SyntheticConfig()
    shift_at_fraction: float = 0.5
    hot_boost: float = 8.0
    n_hot: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.shift_at_fraction < 1.0:
            raise ValueError(
                f"shift_at_fraction must be in (0,1): {self.shift_at_fraction}"
            )
        if self.hot_boost < 1.0:
            raise ValueError(f"hot_boost must be >= 1: {self.hot_boost}")
        if self.n_hot < 1:
            raise ValueError(f"n_hot must be >= 1: {self.n_hot}")


def generate_shifting(
    config: ShiftConfig = ShiftConfig(), seed: int = 0
) -> Tuple[Workload, List[str]]:
    """Generate the two-phase workload.

    Returns ``(workload, hot_sets)`` where ``hot_sets`` are the file
    sets boosted in phase 2 (so experiments can track their journey).
    Total offered load stays at the base calibration in both phases —
    only its *distribution over file sets* shifts.
    """
    cfg = config.base
    registry = StreamRegistry(seed)
    names = [f"/fs/{j:04d}" for j in range(cfg.n_filesets)]
    x = registry.stream("shift/x").uniform(cfg.x_low, cfg.x_high, size=cfg.n_filesets)

    t_shift = cfg.duration * config.shift_at_fraction
    n1 = int(cfg.target_requests * config.shift_at_fraction)
    n2 = cfg.target_requests - n1
    mean_work = request_work_for_utilization(
        cfg.target_requests, cfg.duration, cfg.total_capacity, cfg.utilization
    )

    # Phase 2 boosts the coldest phase-1 sets into hot spots.
    coldest = list(np.argsort(x)[: config.n_hot])
    weights2 = x.copy()
    weights2[coldest] *= config.hot_boost
    phases = []
    for tag, weights, n, t0, span in (
        ("p1", x, n1, 0.0, t_shift),
        ("p2", weights2, n2, t_shift, cfg.duration - t_shift),
    ):
        n_j = np.maximum(1, np.rint(n * weights / weights.sum()).astype(int))
        arrivals, works, fs_idx, totals = gap_train_columns(
            registry, f"shift/{tag}", n_j, span, cfg.pareto_alpha, mean_work,
            cfg.work_sigma,
        )
        phases.append((arrivals + t0, works, fs_idx, np.array(totals), n_j))
    arrivals, works, fs_idx, totals, counts = zip(*phases)
    workload = Workload(
        name=f"shifting(seed={seed})",
        catalog=FileSetCatalog(names, totals[0] + totals[1], counts[0] + counts[1]),
        arrivals=np.concatenate(arrivals),
        works=np.concatenate(works),
        fs_idx=np.concatenate(fs_idx),
        duration=cfg.duration,
    )
    hot_sets = [names[i] for i in coldest]
    return workload, hot_sets
