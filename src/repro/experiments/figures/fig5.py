"""Figure 5: server latency over time, synthetic workload, four systems.

Paper observations this reproduction must match in shape (§5.2.1):

* **simple randomization**: "the weakest server's performance keeps
  degrading during the simulation and there is unused capacity on more
  powerful servers";
* **dynamic prescient** and **virtual processor**: balanced "from the
  very beginning, time 0" (VP may show occasional inversions from its
  coarse workload unit);
* **ANU**: starts uniform-unaware, "quickly adapts to heterogeneity and
  reaches load balance after several rounds of load placement tuning".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ...engine.record import ClusterResult
from ...metrics.latency import convergence_round, latency_series
from ...metrics.summary import ascii_table, format_float
from ...workloads.synthetic import generate_synthetic
from ..config import ExperimentConfig, paper_config
from ..runner import run_comparison

__all__ = ["Fig5Data", "run", "render"]


@dataclass
class Fig5Data:
    """Results of the Figure 5 experiment."""

    config: ExperimentConfig
    results: Dict[str, ClusterResult]

    @property
    def anu_convergence_round(self) -> int | None:
        """Tuning round at which ANU's active servers become consistent."""
        return convergence_round(self.results["anu"])


def run(seed: int = 1, scale: float = 1.0) -> Fig5Data:
    """Execute the Figure 5 experiment at the given scale."""
    config = paper_config(seed=seed, scale=scale)
    workload = generate_synthetic(config.synthetic_config(), seed=seed)
    results = run_comparison(workload, config)
    return Fig5Data(config=config, results=results)


def render(data: Fig5Data, max_rows: int = 20) -> str:
    """Per-system, per-server latency-versus-time tables (downsampled)."""
    blocks: List[str] = [
        "Figure 5 — server latency over time (synthetic workload)",
        f"cluster powers: {data.config.powers}, tuning interval "
        f"{data.config.tuning_interval:.0f}s, scale {data.config.scale}",
        "",
    ]
    for system, result in data.results.items():
        series = latency_series(result)
        sids = sorted(series, key=repr)
        times = series[sids[0]][0]
        if times.size == 0:
            blocks.append(f"[{system}] (no tuning intervals elapsed)")
            continue
        stride = max(1, int(np.ceil(times.size / max_rows)))
        rows = []
        for i in range(0, times.size, stride):
            row: Dict[str, object] = {"t_min": times[i] / 60.0}
            for sid in sids:
                row[f"s{sid}"] = float(series[sid][1][i])
            rows.append(row)
        blocks.append(f"[{system}] interval mean latency (s) per server:")
        blocks.append(ascii_table(rows, digits=2))
        blocks.append("")
    conv = data.anu_convergence_round
    blocks.append(
        "ANU convergence round: "
        + (str(conv) if conv is not None else "not reached (see EXPERIMENTS.md)")
    )
    return "\n".join(blocks)
