"""The figure-by-figure reproduction harness.

``python -m repro.experiments --all`` regenerates every figure of the
paper's evaluation as text tables; ``repro.experiments.figures.figN``
exposes each experiment programmatically (``run()`` → structured data,
``render()`` → the printed rows/series).
"""

from __future__ import annotations

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "config": [
            "PAPER_POWERS",
            "PAPER_TUNING_INTERVAL",
            "SYSTEMS",
            "ExperimentConfig",
            "paper_config",
        ],
        "cache": ["result_fingerprint", "workload_fingerprint"],
        "chaos": [
            "DEFAULT_FAULT_RATES",
            "render_chaos",
            "run_chaos",
            "run_chaos_sweep",
        ],
        "fanout": ["default_workers"],
        "figures": ["FIGURES"],
        "report": ["run_all_figures", "run_figure"],
        "runner": ["make_policy", "run_comparison", "run_system", "run_vp_sweep"],
        "scale": [
            "DEFAULT_POINTS",
            "SCALE_POLICIES",
            "SMOKE_POINTS",
            "ScalePoint",
            "render_scale",
            "run_scale_point",
        ],
    },
)
