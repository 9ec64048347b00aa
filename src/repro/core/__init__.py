"""ANU randomization — the paper's primary contribution.

Adaptive, non-uniform (ANU) randomization tunes hash-based randomized
load placement directly: file sets hash to a unit interval, servers own
non-overlapping regions of that interval summing to half its measure,
and a stateless delegate re-scales regions each tuning interval from
reported latencies.

Public surface:

* :class:`HashFamily` — the agreed family of hash functions
* :class:`IntervalLayout` / :func:`required_partitions` — interval geometry
* :class:`LayoutEngine` — minimal-movement region placement
* :class:`LatencyReport` / :data:`AVERAGING_RULES` — what a tuning round
  reads (the rules themselves live in :mod:`repro.control`)
* :class:`Delegate` / :class:`Decision` — the stateless delegate
* :class:`ANUManager` — the façade gluing it all together
* :class:`MultiChoicePlacer` — optional SIEVE d-choice refinement
"""

from .anu import ANUManager, Reconfiguration, Shed
from .delegate import Decision, Delegate
from .errors import (
    ANUError,
    ConfigurationError,
    InvariantViolation,
    LookupExhaustedError,
    UnknownServerError,
)
from .hashing import DEFAULT_MAX_PROBES, HashFamily
from .interval import (
    EPS,
    IntervalLayout,
    ServerRegion,
    region_difference,
    required_partitions,
)
from .layout import LayoutEngine
from .multichoice import MultiChoicePlacer
from .render import render_layout, render_lengths_bar
from .tuning import (
    AVERAGING_RULES,
    IncompetenceDetector,
    LatencyReport,
    arithmetic_mean,
    trimmed_mean,
    weighted_mean,
)
from .vector import ProbeMatrix, SegmentTable, batched_locate, fifo_drain

__all__ = [
    "ANUManager",
    "Reconfiguration",
    "Shed",
    "Delegate",
    "Decision",
    "HashFamily",
    "DEFAULT_MAX_PROBES",
    "IntervalLayout",
    "ServerRegion",
    "required_partitions",
    "region_difference",
    "EPS",
    "LayoutEngine",
    "MultiChoicePlacer",
    "render_layout",
    "render_lengths_bar",
    "LatencyReport",
    "IncompetenceDetector",
    "AVERAGING_RULES",
    "arithmetic_mean",
    "weighted_mean",
    "trimmed_mean",
    "SegmentTable",
    "ProbeMatrix",
    "batched_locate",
    "fifo_drain",
    "ANUError",
    "InvariantViolation",
    "UnknownServerError",
    "LookupExhaustedError",
    "ConfigurationError",
]
