"""repro — reproduction of Wu & Burns, HPDC 2004.

"Achieving Performance Consistency in Heterogeneous Clusters":
ANU (adaptive, non-uniform) randomization for load management in
heterogeneous shared-disk clusters, evaluated against simple
randomization, a dynamic prescient optimum, and virtual processors on
a discrete-event cluster simulator.

Subpackages (loaded lazily on first attribute access, so importing one
layer never drags in the ones above it)
-----------
``repro.sim``
    Discrete-event simulation kernel (the YACSIM substitute).
``repro.core``
    ANU randomization: hashing, interval geometry, tuning, delegate.
``repro.engine``
    The composable experiment engine: control-plane / client-path /
    fault layers assembled by ``ExperimentSpec.build()``, instrumented
    through one probe bus.
``repro.cluster``
    Shared-disk cluster model: file sets, heterogeneous servers, caches.
``repro.distributed``
    Control plane: messages, delegate election, heartbeats.
``repro.faults``
    Fault schedules, injection, invariants.
``repro.policies``
    Load managers: ANU + the paper's three baselines (+ a table-based
    reference for shared-state accounting).
``repro.workloads``
    Synthetic (Pareto) and trace-shaped workload generators.
``repro.metrics`` / ``repro.analysis``
    Measurement collection and statistical/bound analysis.
``repro.experiments``
    The figure-by-figure reproduction harness.
``repro.control``
    The pluggable tuning-control layer shared by scalar and vector
    engines (and the live service's epoch batcher).
``repro.retry``
    Client request hardening shared by the simulated and the live
    client: retry policy, request ledger, attempt state machine.
``repro.service``
    ANU as a live placement service: asyncio locator, echo file
    servers, multi-process load generation, digital-twin parity.
"""

from __future__ import annotations

import importlib

__version__ = "1.0.0"

_SUBPACKAGES = (
    "analysis",
    "cluster",
    "control",
    "core",
    "distributed",
    "engine",
    "experiments",
    "faults",
    "metrics",
    "policies",
    "retry",
    "service",
    "sim",
    "workloads",
)

__all__ = list(_SUBPACKAGES) + ["__version__"]


def __getattr__(name: str):
    """Import subpackages on first access (PEP 562 lazy re-export)."""
    if name in _SUBPACKAGES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SUBPACKAGES))
