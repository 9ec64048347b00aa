"""Workload generation and trace I/O.

* :func:`generate_synthetic` — the paper's §5.1 synthetic workload
  (50 file sets, Pareto arrivals, ``X*c`` sizing)
* :func:`generate_trace_shaped` — the DFSTrace-shaped substitute
  (21 file sets, 112,590 requests, one hour; see DESIGN.md for the
  substitution rationale)
* :class:`Workload` — the one schedule container: arrival-sorted
  columns (arrival, work, file-set index) + catalog + oracle, replayed
  as ``(fileset, arrival, work)`` rows by the scalar engine and sliced
  by the vectorized one
* :func:`generate_scale` — planet-scale schedules drawn as whole columns,
  file-set indices by :func:`weighted_indices`
* :mod:`repro.workloads.calibrate` — the "scaling factor c" made explicit
* :func:`save_trace` / :func:`load_trace` — archival trace format
"""

from __future__ import annotations

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "calibrate": [
            "offered_utilization",
            "request_work_for_utilization",
        ],
        "distributions": [
            "arrival_times_from_gaps",
            "lognormal_work",
            "pareto_gaps",
            "weighted_indices",
            "zipf_weights",
        ],
        "io": ["load_trace", "save_trace"],
        "scale": ["ScaleConfig", "generate_scale"],
        "shifting": ["ShiftConfig", "generate_shifting"],
        "synthetic": ["SyntheticConfig", "Workload", "generate_synthetic"],
        "trace": ["TraceConfig", "generate_trace_shaped"],
    },
)
