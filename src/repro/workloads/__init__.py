"""Workload generation and trace I/O.

* :func:`generate_synthetic` — the paper's §5.1 synthetic workload
  (50 file sets, Pareto arrivals, ``X*c`` sizing)
* :func:`generate_trace_shaped` — the DFSTrace-shaped substitute
  (21 file sets, 112,590 requests, one hour; see DESIGN.md for the
  substitution rationale)
* :class:`Workload` — immutable request schedule + catalog + oracle
* :class:`ArrayWorkload` / :func:`generate_scale` — columnar schedules
  for the vectorized path, file-set indices drawn by
  :func:`weighted_indices`
* :mod:`repro.workloads.calibrate` — the "scaling factor c" made explicit
* :func:`save_trace` / :func:`load_trace` — archival trace format
"""

from .calibrate import (
    offered_utilization,
    request_work_for_utilization,
    scaling_factor_c,
    weakest_server_overloaded,
)
from .distributions import (
    arrival_times_from_gaps,
    lognormal_work,
    pareto_gaps,
    weighted_indices,
    zipf_weights,
)
from .io import load_trace, save_trace
from .scale import ArrayCatalog, ArrayWorkload, ScaleConfig, generate_scale
from .shifting import ShiftConfig, generate_shifting
from .synthetic import SyntheticConfig, Workload, generate_synthetic
from .trace import TraceConfig, generate_trace_shaped

__all__ = [
    "Workload",
    "SyntheticConfig",
    "generate_synthetic",
    "ShiftConfig",
    "generate_shifting",
    "TraceConfig",
    "generate_trace_shaped",
    "ArrayCatalog",
    "ArrayWorkload",
    "ScaleConfig",
    "generate_scale",
    "save_trace",
    "load_trace",
    "pareto_gaps",
    "arrival_times_from_gaps",
    "zipf_weights",
    "lognormal_work",
    "weighted_indices",
    "request_work_for_utilization",
    "offered_utilization",
    "scaling_factor_c",
    "weakest_server_overloaded",
]
