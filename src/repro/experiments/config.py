"""Canonical experiment configuration (the paper's §5.1 setup).

Every figure module builds on these constants so the whole harness
shares one source of truth. ``scale`` lets tests trade run length
for fidelity: ``scale=1.0`` is the paper-sized experiment (200 minutes,
66,401 requests); smaller scales shrink duration and request count
proportionally while keeping rates, utilization and the tuning cadence
identical — the dynamics are the same, just observed for less time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from ..cluster.cache import CacheConfig
from ..engine.record import ClusterConfig
from ..workloads.synthetic import SyntheticConfig
from ..workloads.trace import TraceConfig

__all__ = [
    "PAPER_POWERS",
    "PAPER_TUNING_INTERVAL",
    "SYSTEMS",
    "ExperimentConfig",
    "paper_config",
]

#: The paper's five-server heterogeneous cluster: "Servers 0, 1, 2, 3,
#: and 4 have processing power 1, 3, 5, 7, and 9 respectively to stress
#: heterogeneity" (§5.1).
PAPER_POWERS: Dict[int, float] = {0: 1.0, 1: 3.0, 2: 5.0, 3: 7.0, 4: 9.0}

#: "we use two minutes as the load placement tuning interval" (§5.1).
PAPER_TUNING_INTERVAL: float = 120.0

#: The four systems of the evaluation, in the paper's order.
SYSTEMS = ("simple", "anu", "prescient", "virtual")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's full parameterization."""

    powers: Dict[int, float] = field(default_factory=lambda: dict(PAPER_POWERS))
    tuning_interval: float = PAPER_TUNING_INTERVAL
    seed: int = 1
    scale: float = 1.0
    cache: CacheConfig = field(default_factory=CacheConfig)

    def __post_init__(self) -> None:
        if not 0 < self.scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")

    @property
    def total_capacity(self) -> float:
        """Aggregate service rate of the cluster."""
        return sum(self.powers.values())

    def synthetic_config(self) -> SyntheticConfig:
        """The §5.1 synthetic workload, scaled."""
        base = SyntheticConfig(total_capacity=self.total_capacity)
        if self.scale == 1.0:
            return base
        return replace(
            base,
            duration=base.duration * self.scale,
            target_requests=max(
                base.n_filesets, int(base.target_requests * self.scale)
            ),
        )

    def trace_config(self) -> TraceConfig:
        """The DFSTrace-shaped workload, scaled."""
        base = TraceConfig(total_capacity=self.total_capacity)
        if self.scale == 1.0:
            return base
        return replace(
            base,
            duration=base.duration * self.scale,
            target_requests=max(
                base.n_filesets, int(base.target_requests * self.scale)
            ),
        )

    def cluster_config(self) -> ClusterConfig:
        """Driver configuration for this experiment."""
        return ClusterConfig(
            server_powers=dict(self.powers),
            tuning_interval=self.tuning_interval,
            cache=self.cache,
        )


def paper_config(seed: int = 1, scale: float = 1.0) -> ExperimentConfig:
    """The paper's configuration at the requested scale."""
    return ExperimentConfig(seed=seed, scale=scale)
