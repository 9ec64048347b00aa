"""Experiment assembly: :class:`ExperimentSpec` and :class:`SimulationBuilder`.

The front door of :mod:`repro.engine`. A spec is the declarative form
— the experiment triple plus one object per layer — and the builder is
the fluent way to produce one::

    engine = (
        SimulationBuilder(workload, policy, config)
        .distributed(delegate_crashes=[200.0])
        .build()
    )
    result = engine.run()

Layer shorthands:

* the default layers are direct control, the basic client path, and
  no faults;
* :meth:`SimulationBuilder.distributed` tunes over the message-level
  control plane (delegate election, optional delegate crashes);
* :meth:`SimulationBuilder.chaos` is the full chaos harness —
  distributed control with the seeded network rng, hardened client
  path with the seeded jitter rng, and the chaos fault layer, all
  derived from ``ChaosConfig.seed`` (the golden-fingerprint tests pin
  the composition bit for bit).

Observers attach through :meth:`observe`/:meth:`probe` before the
engine is assembled, so they see every event from the first one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Type, TYPE_CHECKING

from ..policies.base import LoadManager
from ..retry import RetryPolicy
from .client_path import ClientPath, HardenedClientPath
from .control import ControlPlane, DistributedControlPlane
from .engine import ClusterEngine
from .fault_layer import ChaosFaultLayer, FaultLayer
from .probes import Observer, ProbeBus, ProbeEvent
from .record import ChaosConfig, ClusterConfig, derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..control import Controller
    from ..faults.schedule import FaultSchedule
    from ..workloads.synthetic import Workload

__all__ = ["ExperimentSpec", "SimulationBuilder"]


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


class SimulationBuilder:
    """Fluent assembly of a :class:`ClusterEngine`.

    All mutators return ``self``; each layer slot may be set at most
    once (setting it twice is almost always a composition bug, so it
    raises).
    """

    def __init__(
        self,
        workload: Optional["Workload"] = None,
        policy: Optional[LoadManager] = None,
        config: Optional[ClusterConfig] = None,
    ) -> None:
        self._workload = workload
        self._policy = policy
        self._config = config
        self._controller: Optional["Controller"] = None
        self._control: Optional[ControlPlane] = None
        self._client_path: Optional[ClientPath] = None
        self._faults: Optional[FaultLayer] = None
        self._observers: List[Observer] = []
        self._bus: Optional[ProbeBus] = None

    # ------------------------------------------------------------------ #
    # the experiment triple
    # ------------------------------------------------------------------ #
    def workload(self, workload: "Workload") -> "SimulationBuilder":
        """Set the workload to replay."""
        self._workload = workload
        return self

    def policy(self, policy: LoadManager) -> "SimulationBuilder":
        """Set the placement policy."""
        self._policy = policy
        return self

    def config(self, config: ClusterConfig) -> "SimulationBuilder":
        """Set the cluster configuration."""
        self._config = config
        return self

    # ------------------------------------------------------------------ #
    # layers
    # ------------------------------------------------------------------ #
    def _set_once(self, slot: str, value) -> "SimulationBuilder":
        if getattr(self, slot) is not None:
            raise ValueError(f"{slot.lstrip('_')} layer already set")
        setattr(self, slot, value)
        return self

    def control(self, control: ControlPlane) -> "SimulationBuilder":
        """Use an explicit control-plane layer."""
        return self._set_once("_control", control)

    def controller(self, controller: "Controller") -> "SimulationBuilder":
        """Inject a tuning rule (:class:`repro.control.Controller`)."""
        return self._set_once("_controller", controller)

    def client_path(self, client_path: ClientPath) -> "SimulationBuilder":
        """Use an explicit client-path layer."""
        return self._set_once("_client_path", client_path)

    def faults(self, faults: FaultLayer) -> "SimulationBuilder":
        """Use an explicit fault layer."""
        return self._set_once("_faults", faults)

    def distributed(
        self,
        delegate_crashes: Optional[Sequence[float]] = None,
        network_rng: Optional[random.Random] = None,
    ) -> "SimulationBuilder":
        """Tune over the message-level control plane (§4)."""
        return self._set_once(
            "_control",
            DistributedControlPlane(
                delegate_crashes=list(delegate_crashes or []),
                network_rng=network_rng,
            ),
        )

    def hardened(
        self,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
    ) -> "SimulationBuilder":
        """Drive requests through the retry/redirect client path."""
        return self._set_once("_client_path", HardenedClientPath(retry=retry, rng=rng))

    def chaos(
        self,
        schedule: Optional["FaultSchedule"] = None,
        chaos: Optional[ChaosConfig] = None,
    ) -> "SimulationBuilder":
        """The full chaos harness: one call sets all three layers.

        Derives the network and client-jitter rngs from
        ``ChaosConfig.seed``, so a chaos run stays a pure function of
        ``(workload, config, schedule, chaos)``.
        """
        cfg = chaos if chaos is not None else ChaosConfig()
        self._set_once(
            "_control",
            DistributedControlPlane(
                network_rng=random.Random(derive_seed(cfg.seed, "network"))
            ),
        )
        self._set_once(
            "_client_path",
            HardenedClientPath(
                retry=cfg.retry, rng=random.Random(derive_seed(cfg.seed, "client"))
            ),
        )
        return self._set_once(
            "_faults", ChaosFaultLayer(schedule=schedule, chaos=cfg)
        )

    # ------------------------------------------------------------------ #
    # instrumentation
    # ------------------------------------------------------------------ #
    def observe(self, *observers: Observer) -> "SimulationBuilder":
        """Attach observers to the engine's bus before assembly."""
        self._observers.extend(observers)
        return self

    def probe(
        self, event_type: Type[ProbeEvent], fn: Callable[[ProbeEvent], None]
    ) -> "SimulationBuilder":
        """Subscribe a bare callable to one probe event type."""
        if self._bus is None:
            self._bus = ProbeBus()
        self._bus.subscribe(event_type, fn)
        return self

    def bus(self, bus: ProbeBus) -> "SimulationBuilder":
        """Publish on a caller-owned bus instead of a fresh one."""
        return self._set_once("_bus", bus)

    # ------------------------------------------------------------------ #
    # assembly
    # ------------------------------------------------------------------ #
    def spec(self) -> ExperimentSpec:
        """The declarative form of what this builder would assemble."""
        if self._workload is None or self._policy is None or self._config is None:
            missing = [
                name
                for name, value in (
                    ("workload", self._workload),
                    ("policy", self._policy),
                    ("config", self._config),
                )
                if value is None
            ]
            raise ValueError(f"experiment incomplete: missing {', '.join(missing)}")
        return ExperimentSpec(
            workload=self._workload,
            policy=self._policy,
            config=self._config,
            control=self._control,
            client_path=self._client_path,
            faults=self._faults,
            observers=tuple(self._observers),
            bus=self._bus,
            controller=self._controller,
        )

    def build(self) -> ClusterEngine:
        """Assemble the engine."""
        return self.spec().build()

    def run(self, until: Optional[float] = None):
        """Assemble and run in one step.

        Returns the fault layer's result view: a plain
        :class:`~repro.engine.record.ClusterResult` for the null layer,
        a :class:`~repro.engine.record.ChaosResult` under chaos.
        """
        return self.build().run_chaos(until)
