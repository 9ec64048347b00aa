"""Figure 4: server latency over time, file-system-trace workload.

The paper uses a one-hour DFSTrace workload (21 file sets, 112,590
requests) "for comparison with synthetic workloads to ensure the sanity
of our results" — the trace run must show "the same scaling and tuning
properties" as Figure 5. We drive the identical four-system comparison
with the DFSTrace-shaped workload (see DESIGN.md's substitution note).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ...engine.record import ClusterResult
from ...workloads.trace import generate_trace_shaped
from ..config import ExperimentConfig, paper_config
from ..runner import run_comparison

__all__ = ["Fig4Data", "run", "render"]


@dataclass
class Fig4Data:
    """Results of the Figure 4 experiment."""

    config: ExperimentConfig
    results: Dict[str, ClusterResult]


def run(seed: int = 1, scale: float = 1.0) -> Fig4Data:
    """Execute the Figure 4 experiment at the given scale."""
    config = paper_config(seed=seed, scale=scale)
    workload = generate_trace_shaped(config.trace_config(), seed=seed)
    results = run_comparison(workload, config)
    return Fig4Data(config=config, results=results)


def render(data: Fig4Data, max_rows: int = 20) -> str:
    """Same rendering as Figure 5, over the trace workload."""
    from .fig5 import Fig5Data
    from .fig5 import render as render5

    text = render5(
        Fig5Data(config=data.config, results=data.results), max_rows=max_rows
    )
    return text.replace(
        "Figure 5 — server latency over time (synthetic workload)",
        "Figure 4 — server latency over time (DFSTrace-shaped workload)",
    )

