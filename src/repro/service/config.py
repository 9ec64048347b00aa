"""Service configuration and its ``REPRO_SERVICE_*`` environment knobs.

All knobs go through :mod:`repro.knobs`, the same strict validators the
fan-out's ``REPRO_PARALLEL_WORKERS`` uses: unset means default, anything
set must parse exactly or the service refuses to start
(:meth:`ServiceConfig.with_env_overrides`). The paper's cluster shape —
powers {1, 3, 5, 7, 9} — is the default line-up; the smoke profile
trims it to two servers so CI finishes in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..knobs import env_float, env_int

__all__ = ["ServiceConfig", "smoke_config", "full_config"]

#: The paper's heterogeneous cluster: relative powers {1, 3, 5, 7, 9}.
PAPER_POWERS: Tuple[float, ...] = (1.0, 3.0, 5.0, 7.0, 9.0)


@dataclass(frozen=True)
class ServiceConfig:
    """Everything one service bench run needs to know.

    Attributes
    ----------
    host / port:
        Where the locator listens. Port 0 binds an ephemeral port (the
        bench inspects the bound socket); file servers always bind
        ephemeral ports and announce them through ``ADMIN join``.
    server_powers:
        Server id -> relative power; an echo server's service time for
        a request of ``work`` units is ``work * time_scale / power``.
    epoch_seconds:
        Wall-clock tuning-epoch length — the live analogue of the
        simulator's ``tuning_interval``.
    duration_seconds:
        Load-generation horizon. The bench runs the epoch loop until
        the generated schedule *and* all in-flight requests drain.
    clients:
        Load-generating client processes.
    n_filesets / target_requests / utilization:
        Synthetic-workload shape (see
        :class:`repro.workloads.SyntheticConfig`).
    time_scale:
        Seconds of service per work unit on a power-1 server. Chosen
        so the busiest smoke/full profiles keep service times in the
        milliseconds — fast enough for CI, slow enough to measure.
    seed:
        Master seed: workload generation, hash family, retry jitter.
    """

    host: str = "127.0.0.1"
    port: int = 0
    server_powers: Dict[str, float] = field(
        default_factory=lambda: {f"s{i}": p for i, p in enumerate(PAPER_POWERS)}
    )
    epoch_seconds: float = 1.0
    duration_seconds: float = 12.0
    clients: int = 4
    n_filesets: int = 50
    target_requests: int = 4000
    utilization: float = 0.55
    time_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.server_powers:
            raise ValueError("need at least one server")
        if any(p <= 0 for p in self.server_powers.values()):
            raise ValueError("server powers must be > 0")
        if self.epoch_seconds <= 0:
            raise ValueError(f"epoch_seconds must be > 0, got {self.epoch_seconds}")
        if self.duration_seconds <= 0:
            raise ValueError(
                f"duration_seconds must be > 0, got {self.duration_seconds}"
            )
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        if self.time_scale <= 0:
            raise ValueError(f"time_scale must be > 0, got {self.time_scale}")

    @property
    def total_capacity(self) -> float:
        """Sum of server powers (the workload calibration base)."""
        return float(sum(self.server_powers.values()))

    def with_env_overrides(self) -> "ServiceConfig":
        """This config with ``REPRO_SERVICE_*`` knobs applied on top.

        ``REPRO_SERVICE_PORT`` (0–65535; 0 binds an ephemeral port),
        ``REPRO_SERVICE_EPOCH_SECONDS`` (> 0) and ``REPRO_SERVICE_CLIENTS``
        (>= 1) override the profile's values; unset knobs keep them, and
        with none set the same object comes back.
        """
        port = env_int("REPRO_SERVICE_PORT", default=None, minimum=0, maximum=65535)
        epoch = env_float(
            "REPRO_SERVICE_EPOCH_SECONDS", default=None, exclusive_minimum=0.0
        )
        clients = env_int("REPRO_SERVICE_CLIENTS", default=None, minimum=1)
        changes = {}
        if port is not None:
            changes["port"] = port
        if epoch is not None:
            changes["epoch_seconds"] = epoch
        if clients is not None:
            changes["clients"] = clients
        if not changes:
            return self
        from dataclasses import replace

        return replace(self, **changes)


def smoke_config(seed: int = 0) -> ServiceConfig:
    """The CI smoke profile: 2 servers, ~4 s of load, short epochs."""
    return ServiceConfig(
        server_powers={"s0": 1.0, "s1": 3.0},
        epoch_seconds=0.5,
        duration_seconds=4.0,
        clients=2,
        n_filesets=16,
        target_requests=600,
        utilization=0.5,
        seed=seed,
    )


def full_config(seed: int = 0) -> ServiceConfig:
    """The committed-bench profile: the paper's 5 powers, ~24 s of load."""
    return ServiceConfig(
        server_powers={f"s{i}": p for i, p in enumerate(PAPER_POWERS)},
        epoch_seconds=1.5,
        duration_seconds=24.0,
        clients=4,
        n_filesets=50,
        target_requests=6000,
        utilization=0.55,
        seed=seed,
    )
