"""repro.engine — the composable experiment engine.

One :class:`ClusterEngine` assembled from four pluggable layers
(control plane, client path, fault layer, instrumentation), described
by an :class:`ExperimentSpec` and assembled by its ``build()``;
:func:`chaos_layers` supplies the chaos harness's three layers. See
DESIGN.md §8 for the architecture and the probe catalog.

The names below are re-exported lazily (:mod:`repro._lazy`): importing
the package runs none of its modules, so ``import repro.engine.record``
— all the live load generator needs, for :func:`derive_seed` — loads
``record`` and ``probes`` and nothing else. Engine modules still reach
``repro.cluster``, ``repro.faults`` and ``repro.experiments`` only
inside functions (``tools/check_layering.py``).
"""

from __future__ import annotations

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "probes": [
            "DelegateElected",
            "FaultInjected",
            "FailureDeclared",
            "InvariantAudit",
            "MovesApplied",
            "Observer",
            "ProbeBus",
            "ProbeEvent",
            "RecoveryDeclared",
            "RelocationApplied",
            "RequestCompleted",
            "RequestDropped",
            "RequestFailed",
            "RunCompleted",
            "RunStarted",
            "ServerFailed",
            "ServerRecovered",
        ],
        "client_path": [
            "BasicClientPath",
            "ClientPath",
            "HardenedClient",
            "HardenedClientPath",
            "RequestDriver",
        ],
        "record": [
            "ChaosConfig",
            "ChaosResult",
            "ClusterConfig",
            "ClusterResult",
            "FailureRecord",
            "MovementRecord",
            "RunRecord",
            "RunRecorder",
            "derive_seed",
        ],
        "control": ["ControlPlane", "DirectControlPlane", "DistributedControlPlane"],
        "fault_layer": [
            "MONITOR_ID",
            "ChaosFaultLayer",
            "FaultLayer",
            "NullFaultLayer",
        ],
        "vector_faults": ["VectorChaosFaultLayer"],
        "engine": ["ClusterEngine"],
        "vector_driver": ["VectorizedClientPath", "VectorizedRequestDriver"],
        "builder": ["ExperimentSpec", "chaos_layers"],
    },
)
