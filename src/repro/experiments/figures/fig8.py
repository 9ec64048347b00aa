"""Figure 8: virtual-processor performance versus VP count.

"We vary the number of virtual processors from 5 to 50, because we
simulate 5 servers and 50 file sets. ... With a small number of virtual
processors, the virtual processor system does not effectively balance
the synthetic workload ... The virtual processor system achieves
equivalent performance to ANU randomization when using 30 virtual
processors for the 50 file sets ... When the number of virtual
processors reaches 50, the virtual processor system outperforms ANU
randomization on latency and performs comparably to the dynamic
prescient system." (§5.4)

Each sweep point also reports the scheme's shared-state size — the
trade-off the section is actually about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ...engine.record import ClusterResult
from ...metrics.summary import ascii_table
from ...workloads.synthetic import generate_synthetic
from ..config import ExperimentConfig, paper_config
from ..runner import run_comparison, run_vp_sweep
from .fig5 import Fig5Data

__all__ = ["Fig8Data", "run", "render", "DEFAULT_SWEEP"]

#: The paper sweeps 5 → 50 VPs for 5 servers / 50 file sets.
DEFAULT_SWEEP = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50)


@dataclass
class Fig8Data:
    """Sweep results plus the reference systems."""

    config: ExperimentConfig
    sweep: Dict[int, ClusterResult]
    references: Dict[str, ClusterResult]

    def crossover_nv(self) -> Optional[int]:
        """Smallest VP count matching ANU's aggregate latency (paper: ~30)."""
        anu = self.references["anu"].aggregate_mean_latency
        for nv in sorted(self.sweep):
            if self.sweep[nv].aggregate_mean_latency <= anu:
                return nv
        return None


def run(
    seed: int = 1,
    scale: float = 1.0,
    sweep: Sequence[int] = DEFAULT_SWEEP,
    max_workers: Optional[int] = 1,
    fig5: Optional[Fig5Data] = None,
) -> Fig8Data:
    """Execute the VP sweep and the ANU/prescient reference runs.

    ``max_workers > 1`` fans the runs out across a process pool;
    results are identical to the sequential path — the sweep is one
    independent run per VP count. ``fig5`` lends its config, its ANU and
    prescient runs and its virtual-processor run, the sweep's point at
    five VPs per server; only the other points run.
    """
    config = fig5.config if fig5 is not None else paper_config(seed=seed, scale=scale)
    workload = generate_synthetic(config.synthetic_config(), seed=config.seed)
    if fig5 is not None:
        references = {system: fig5.results[system] for system in ("anu", "prescient")}
        lent = {5 * len(config.powers): fig5.results["virtual"]}
    else:
        references = run_comparison(workload, config, ("anu", "prescient"), max_workers)
        lent = {}
    fresh = run_vp_sweep(workload, config, [nv for nv in sweep if nv not in lent], max_workers)
    sweep_results = {nv: {**fresh, **lent}[nv] for nv in map(int, sweep)}
    return Fig8Data(config=config, sweep=sweep_results, references=references)


def render(data: Fig8Data) -> str:
    """The sweep table (8a), the close-up comparison (8b) and crossover."""
    rows: List[Dict[str, object]] = []
    for nv in sorted(data.sweep):
        res = data.sweep[nv]
        rows.append(
            {
                "n_virtual": nv,
                "mean_latency": res.aggregate_mean_latency,
                "std_latency": res.aggregate_std_latency,
                "state_entries": res.shared_state_entries,
                "moves": res.total_moves,
            }
        )
    ref_rows: List[Dict[str, object]] = []
    for system, res in data.references.items():
        ref_rows.append(
            {
                "system": system,
                "mean_latency": res.aggregate_mean_latency,
                "std_latency": res.aggregate_std_latency,
                "state_entries": res.shared_state_entries,
            }
        )
    crossover = data.crossover_nv()
    return "\n".join(
        [
            "Figure 8(a) — virtual-processor system vs number of VPs:",
            ascii_table(rows),
            "",
            "Figure 8(b) — references (same workload):",
            ascii_table(ref_rows),
            "",
            "VP/ANU latency crossover at n_virtual = "
            + (str(crossover) if crossover is not None else "not reached")
            + " (paper: ~30 of 50 file sets)",
        ]
    )
