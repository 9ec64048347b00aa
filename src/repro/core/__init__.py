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

from __future__ import annotations

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "anu": ["ANUManager", "Reconfiguration", "Shed"],
        "delegate": ["Decision", "Delegate"],
        "errors": [
            "ANUError",
            "ConfigurationError",
            "InvariantViolation",
            "LookupExhaustedError",
            "UnknownServerError",
        ],
        "hashing": ["DEFAULT_MAX_PROBES", "HashFamily"],
        "interval": [
            "EPS",
            "IntervalLayout",
            "ServerRegion",
            "region_difference",
            "required_partitions",
        ],
        "layout": ["LayoutEngine"],
        "multichoice": ["MultiChoicePlacer"],
        "render": ["render_layout", "render_lengths_bar"],
        "tuning": [
            "AVERAGING_RULES",
            "IncompetenceDetector",
            "LatencyReport",
            "arithmetic_mean",
            "trimmed_mean",
            "weighted_mean",
        ],
        "vector": ["ProbeMatrix", "SegmentTable", "batched_locate", "fifo_drain"],
    },
)
