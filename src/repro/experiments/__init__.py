"""The figure-by-figure reproduction harness.

``python -m repro.experiments --all`` regenerates every figure of the
paper's evaluation as text tables; ``repro.experiments.figures.figN``
exposes each experiment programmatically (``run()`` → structured data,
``render()`` → the printed rows/series).
"""

from .config import (
    PAPER_POWERS,
    PAPER_TUNING_INTERVAL,
    SYSTEMS,
    ExperimentConfig,
    paper_config,
)
from .cache import result_fingerprint, workload_fingerprint
from .chaos import (
    DEFAULT_FAULT_RATES,
    render_chaos,
    run_chaos,
    run_chaos_sweep,
)
from .fanout import default_workers
from .figures import FIGURES
from .report import run_all_figures, run_figure
from .runner import make_policy, run_comparison, run_system, run_vp_sweep
from .scale import (
    DEFAULT_POINTS,
    SCALE_POLICIES,
    SMOKE_POINTS,
    ScalePoint,
    render_scale,
    run_scale_point,
)

__all__ = [
    "PAPER_POWERS",
    "PAPER_TUNING_INTERVAL",
    "SYSTEMS",
    "ExperimentConfig",
    "paper_config",
    "FIGURES",
    "run_figure",
    "run_all_figures",
    "make_policy",
    "run_system",
    "run_comparison",
    "result_fingerprint",
    "workload_fingerprint",
    "default_workers",
    "run_vp_sweep",
    "DEFAULT_FAULT_RATES",
    "run_chaos",
    "run_chaos_sweep",
    "render_chaos",
    "ScalePoint",
    "SCALE_POLICIES",
    "DEFAULT_POINTS",
    "SMOKE_POINTS",
    "run_scale_point",
    "render_scale",
]
