"""Statistical and theoretical analysis utilities.

* :mod:`repro.analysis.bounds` — the §4 load-balance bounds and the
  balls-into-bins Monte Carlo that checks them (bench A6)
* :mod:`repro.analysis.stats` — bootstrap CIs, Hill tail-index
  estimation for the heavy-tail verification
"""

from __future__ import annotations

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "convergence": ["ControllerTrace", "equilibrium_lengths", "iterate_controller"],
        "bounds": [
            "BalanceSample",
            "anu_balance_bound",
            "measure_balance",
            "simple_randomization_bound",
        ],
        "stats": [
            "ConfidenceInterval",
            "bootstrap_mean_ci",
            "is_heavy_tailed",
            "mean_sem",
            "pareto_tail_index",
        ],
    },
)
