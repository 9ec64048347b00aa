"""Measurement extraction for the paper's figures.

* :mod:`repro.metrics.latency` — Figures 4/5 series, Figure 6 stats
* :mod:`repro.metrics.movement` — Figure 7 series
* :mod:`repro.metrics.consistency` — §5.2.2 consistency quantification
* :mod:`repro.metrics.robustness` — chaos-run robustness observables
* :mod:`repro.metrics.summary` — cross-system tables + ASCII rendering
"""

from __future__ import annotations

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "consistency": [
            "ConsistencyReport",
            "coefficient_of_variation",
            "consistency_report",
            "jain_index",
        ],
        "latency": [
            "AggregateLatency",
            "aggregate_latency",
            "convergence_round",
            "latency_series",
            "per_server_mean",
            "steady_state_means",
        ],
        "movement": ["MovementSeries", "front_loadedness", "movement_series"],
        "robustness": [
            "RobustnessReport",
            "consistency_cv_series",
            "consistency_recovery_time",
            "robustness_report",
        ],
        "sla": ["SLA", "SLAReport", "evaluate_sla"],
        "summary": ["ascii_table", "comparison_rows", "format_float"],
    },
)
