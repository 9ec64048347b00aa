"""Server cache model: why moving a file set is expensive.

"It is very costly to move workload of a file set from one server to
another in shared-disk clusters. The releasing server needs to flush
its cache, writing all dirty data to stable storage. The acquiring
server must initialize the file set. Furthermore, the acquiring server
starts with a cold cache, which hinders initial performance." (§5.3)

:class:`CacheModel` turns a shed into two concrete costs:

* **flush work** charged to the *releasing* server — a synchronous
  busy period proportional to the file set's workload share (dirty
  state scales with how hot the file set was);
* a **cold-cache penalty** at the *acquiring* server — requests to the
  moved file set cost ``cold_factor ×`` their work until the warmup
  window elapses.

Setting ``flush_work_scale = 0`` and ``cold_factor = 1`` disables the
model (useful for isolating pure queueing effects in ablations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["CacheConfig", "CacheModel"]


@dataclass(frozen=True)
class CacheConfig:
    """Tunable costs of moving a file set.

    Attributes
    ----------
    flush_work_scale:
        Flush busy-work charged to the releasing server, in units of the
        file set's *mean request work* (a hot file set has more dirty
        cache to write back).
    cold_factor:
        Multiplier (≥ 1) on request work at the acquiring server while
        the file set's cache is cold.
    warmup_time:
        Seconds after acquisition during which the cold factor applies.
    """

    flush_work_scale: float = 4.0
    cold_factor: float = 1.5
    warmup_time: float = 30.0

    def __post_init__(self) -> None:
        if self.flush_work_scale < 0:
            raise ValueError(f"flush_work_scale must be >= 0: {self.flush_work_scale}")
        if self.cold_factor < 1.0:
            raise ValueError(f"cold_factor must be >= 1: {self.cold_factor}")
        if self.warmup_time < 0:
            raise ValueError(f"warmup_time must be >= 0: {self.warmup_time}")

    @property
    def enabled(self) -> bool:
        """``False`` when the configuration is a no-op."""
        return self.flush_work_scale > 0 or (
            self.cold_factor > 1.0 and self.warmup_time > 0
        )


class CacheModel:
    """Tracks cache warmth of (server, file set) pairs.

    The cluster driver notifies the model on every shed; servers consult
    :meth:`work_multiplier` when computing a request's service demand.
    """

    def __init__(self, config: CacheConfig | None = None) -> None:
        self.config = config or CacheConfig()
        #: ``(server_id, fileset)`` → warmup end; a lookup past it prunes it.
        self.cold: Dict[Tuple[object, str], float] = {}
        #: Total flush work charged so far (diagnostic).
        self.total_flush_work = 0.0
        #: Number of sheds processed (diagnostic).
        self.sheds_seen = 0

    def on_shed(
        self, fileset: str, source: object, target: object, now: float, mean_request_work: float
    ) -> float:
        """Record a move; returns the flush work to charge to ``source``.

        The acquiring server's cache for the file set becomes cold until
        ``now + warmup_time``.
        """
        self.sheds_seen += 1
        self.cold[(target, fileset)] = now + self.config.warmup_time
        # The releasing server's copy is gone; if the set ever returns
        # it starts cold again.
        self.cold.pop((source, fileset), None)
        flush = self.config.flush_work_scale * mean_request_work
        self.total_flush_work += flush
        return flush

    def work_multiplier(self, server: object, fileset: str, now: float) -> float:
        """Service-work multiplier for a request at ``server`` at ``now``."""
        warm_at = self.cold.get((server, fileset))
        if warm_at is None or now >= warm_at:
            if warm_at is not None:
                del self.cold[(server, fileset)]  # expired; keep map small
            return 1.0
        return self.config.cold_factor
