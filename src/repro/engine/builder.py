"""Experiment assembly: :class:`ExperimentSpec` and :func:`chaos_layers`.

The front door of :mod:`repro.engine`. A spec is the experiment triple
plus one object per layer, and :meth:`ExperimentSpec.build` assembles
the engine it describes::

    engine = ExperimentSpec(
        workload, policy, config,
        control=DistributedControlPlane(delegate_crashes=[200.0]),
    ).build()
    result = engine.run()

``None`` layers are the defaults: direct control, the basic client
path, no faults. :func:`chaos_layers` is the full chaos harness as the
three layer keywords — distributed control with the seeded network
rng, the hardened client path with the seeded jitter rng, and the
chaos fault layer, all derived from ``ChaosConfig.seed`` (the
golden-fingerprint tests pin the composition bit for bit)::

    spec = ExperimentSpec(workload, policy, config, **chaos_layers(schedule, chaos))
    result = spec.build().run_chaos()

A ``control=`` (or any other chaos layer) passed beside it is Python's
own duplicate-keyword ``TypeError``. Observers and a caller-owned
``bus`` are wired before assembly, so they see every event from the
first one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union, TYPE_CHECKING

from ..policies.base import LoadManager
from .client_path import ClientPath, HardenedClientPath
from .control import ControlPlane, DistributedControlPlane
from .engine import ClusterEngine
from .fault_layer import ChaosFaultLayer, FaultLayer
from .probes import Observer, ProbeBus
from .record import ChaosConfig, ClusterConfig, derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..control import Controller
    from ..faults.schedule import FaultSchedule
    from ..workloads.synthetic import Workload

__all__ = ["ExperimentSpec", "chaos_layers"]


@dataclass
class ExperimentSpec:
    """A fully described experiment: the triple plus one object per layer.

    ``None`` layers mean the engine defaults (direct control, basic
    client path, no faults). Specs are plain data — build the same spec
    twice and you get two independent, identically assembled engines.
    """

    workload: "Workload"
    policy: LoadManager
    config: ClusterConfig
    control: Optional[ControlPlane] = None
    client_path: Optional[ClientPath] = None
    faults: Optional[FaultLayer] = None
    observers: Tuple[Observer, ...] = ()
    bus: Optional[ProbeBus] = None
    #: Tuning rule injected into the policy at assembly (a
    #: :class:`repro.control.Controller`; the policy must expose
    #: ``use_controller`` — the ANU adapters do). ``None`` keeps the
    #: policy's own rule.
    controller: Optional["Controller"] = None

    def build(self) -> ClusterEngine:
        """Assemble the engine this spec describes."""
        if self.controller is not None:
            use = getattr(self.policy, "use_controller", None)
            if use is None:
                raise ValueError(
                    f"policy {getattr(self.policy, 'name', self.policy)!r} "
                    "does not take a pluggable controller"
                )
            # fork(): each build gets an isolated controller state, so
            # building the same spec twice yields independent engines.
            use(self.controller.fork())
        return ClusterEngine(
            self.workload,
            self.policy,
            self.config,
            control=self.control,
            client_path=self.client_path,
            faults=self.faults,
            bus=self.bus,
            observers=self.observers,
        )


def chaos_layers(
    schedule: Optional["FaultSchedule"] = None,
    chaos: Optional[ChaosConfig] = None,
) -> Dict[str, Union[ControlPlane, ClientPath, FaultLayer]]:
    """The full chaos harness as :class:`ExperimentSpec` layer keywords.

    Derives the network and client-jitter rngs from
    ``ChaosConfig.seed``, so a chaos run stays a pure function of
    ``(workload, config, schedule, chaos)``.
    """
    cfg = chaos if chaos is not None else ChaosConfig()
    return {
        "control": DistributedControlPlane(
            network_rng=random.Random(derive_seed(cfg.seed, "network"))
        ),
        "client_path": HardenedClientPath(
            retry=cfg.retry, rng=random.Random(derive_seed(cfg.seed, "client"))
        ),
        "faults": ChaosFaultLayer(schedule=schedule, chaos=cfg),
    }
