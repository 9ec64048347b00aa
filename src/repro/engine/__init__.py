"""repro.engine — the composable experiment engine.

One :class:`ClusterEngine` assembled from four pluggable layers
(control plane, client path, fault layer, instrumentation), built by
:class:`SimulationBuilder`. See DESIGN.md §8 for the architecture and
the probe catalog.

Import order below is deliberate: ``repro.faults`` imports
``engine.record`` while its own package is still initialising, so each
engine module may only depend on the ones listed before it (and must
never import ``repro.cluster``, ``repro.faults`` or
``repro.experiments`` at top level).
"""

from .probes import (  # noqa: F401  (isort: keep assembly order)
    DelegateElected,
    FaultInjected,
    FailureDeclared,
    InvariantAudit,
    MovesApplied,
    Observer,
    ProbeBus,
    ProbeEvent,
    RecoveryDeclared,
    RelocationApplied,
    RequestCompleted,
    RequestDropped,
    RequestFailed,
    RoundTraceProbe,
    RunCompleted,
    RunStarted,
    SLAProbe,
    ServerFailed,
    ServerRecovered,
)
from .client_path import (  # noqa: F401
    BasicClientPath,
    ClientPath,
    HardenedClient,
    HardenedClientPath,
    RequestDriver,
)
from .record import (  # noqa: F401
    ChaosConfig,
    ChaosResult,
    ClusterConfig,
    ClusterResult,
    FailureRecord,
    MovementRecord,
    RunRecord,
    RunRecorder,
    derive_seed,
)
from .control import (  # noqa: F401
    ControlPlane,
    DirectControlPlane,
    DistributedControlPlane,
)
from .fault_layer import (  # noqa: F401
    MONITOR_ID,
    ChaosFaultLayer,
    FaultLayer,
    NullFaultLayer,
)
from .vector_faults import VectorChaosFaultLayer  # noqa: F401
from .engine import ClusterEngine  # noqa: F401
from .vector_driver import (  # noqa: F401
    VectorizedClientPath,
    VectorizedRequestDriver,
)
from .builder import ExperimentSpec, SimulationBuilder  # noqa: F401

__all__ = [
    # probes
    "ProbeEvent",
    "ProbeBus",
    "Observer",
    "SLAProbe",
    "RoundTraceProbe",
    "RunStarted",
    "RunCompleted",
    "RequestCompleted",
    "RequestDropped",
    "RequestFailed",
    "MovesApplied",
    "RelocationApplied",
    "DelegateElected",
    "ServerFailed",
    "ServerRecovered",
    "FaultInjected",
    "FailureDeclared",
    "RecoveryDeclared",
    "InvariantAudit",
    # client path
    "ClientPath",
    "BasicClientPath",
    "HardenedClientPath",
    "RequestDriver",
    "VectorizedClientPath",
    "VectorizedRequestDriver",
    "HardenedClient",
    # records / results
    "ClusterConfig",
    "ClusterResult",
    "MovementRecord",
    "ChaosConfig",
    "ChaosResult",
    "FailureRecord",
    "RunRecord",
    "RunRecorder",
    "derive_seed",
    # control plane
    "ControlPlane",
    "DirectControlPlane",
    "DistributedControlPlane",
    # fault layer
    "FaultLayer",
    "NullFaultLayer",
    "ChaosFaultLayer",
    "VectorChaosFaultLayer",
    "MONITOR_ID",
    # engine + assembly
    "ClusterEngine",
    "ExperimentSpec",
    "SimulationBuilder",
]
