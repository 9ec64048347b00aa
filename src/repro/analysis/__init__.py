"""Statistical and theoretical analysis utilities.

* :mod:`repro.analysis.bounds` — the §4 load-balance bound and the
  balls-into-bins Monte Carlo that checks it (claims A6)
"""

from __future__ import annotations

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "convergence": ["ControllerTrace", "equilibrium_lengths", "iterate_controller"],
        "bounds": ["BalanceSample", "anu_balance_bound", "measure_balance"],
    },
)
