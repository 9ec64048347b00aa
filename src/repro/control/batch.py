"""Epoch batching: wall-clock latency observations -> report batches.

The simulator's :class:`~repro.cluster.server.FileServer` closes a
measurement window every tuning interval and emits one
:class:`~repro.core.tuning.LatencyReport`. A live deployment has no
simulated server object to do that bookkeeping — observations arrive
as (server, latency) samples over the wire, whenever clients send them.
:class:`EpochBatcher` is the missing half: it accumulates samples per
server and, when the service's epoch timer fires, closes the window
and emits exactly the report batch a row of simulated file servers
would have produced — same mean/``nan`` convention, same
``idle_rounds`` counter, same previous-window mean for the burst
filter. Controllers cannot tell whether their reports came from the
simulator or from sockets, which is precisely what the digital-twin
parity harness relies on.

The batcher is deliberately pure bookkeeping: no clocks, no sockets,
no thresholds. The caller owns the epoch timer and passes the window
boundaries in.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

from ..core.errors import ConfigurationError
from ..core.tuning import LatencyReport

__all__ = ["EpochBatcher"]


class EpochBatcher:
    """Accumulates per-server latency samples into per-epoch reports.

    Mirrors ``FileServer.interval_report`` semantics per server:

    * a server with no samples this epoch reports ``mean_latency=nan``
      and an incremented ``idle_rounds`` (reset to zero on activity);
    * every report carries the server's *previous* epoch mean, so the
      delegate's burst filter works unchanged;
    * the report batch covers every tracked server, active or idle —
      the controller's idle-probe path needs the idle rows.
    """

    def __init__(self, server_ids: Iterable[object] = ()) -> None:
        self._sums: Dict[object, float] = {}
        self._counts: Dict[object, int] = {}
        self._idle_rounds: Dict[object, int] = {}
        self._prev_mean: Dict[object, float] = {}
        for sid in server_ids:
            self.track(sid)

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #
    def track(self, server_id: object) -> None:
        """Start batching for ``server_id`` (idempotent)."""
        if server_id in self._sums:
            return
        self._sums[server_id] = 0.0
        self._counts[server_id] = 0
        self._idle_rounds[server_id] = 0
        self._prev_mean[server_id] = math.nan

    def forget(self, server_id: object) -> None:
        """Stop batching for ``server_id`` (idempotent); drops samples."""
        self._sums.pop(server_id, None)
        self._counts.pop(server_id, None)
        self._idle_rounds.pop(server_id, None)
        self._prev_mean.pop(server_id, None)

    # ------------------------------------------------------------------ #
    # the observe path
    # ------------------------------------------------------------------ #
    def observe(self, server_id: object, latency: float, count: int = 1) -> None:
        """Record ``count`` completed requests with total-mean ``latency``.

        ``latency`` is the *mean* latency of the batch (a single
        request's latency when ``count == 1``); the batcher weights it
        by ``count`` so pre-aggregated client reports fold in exactly.
        Samples for untracked servers are rejected loudly — a report
        for a server the layout does not know is a protocol bug, not
        noise to swallow.
        """
        if server_id not in self._sums:
            raise ConfigurationError(
                f"latency sample for untracked server {server_id!r}"
            )
        if count < 1:
            raise ConfigurationError(f"sample count must be >= 1, got {count}")
        if not math.isfinite(latency) or latency < 0:
            raise ConfigurationError(
                f"latency must be a finite non-negative number, got {latency!r}"
            )
        self._sums[server_id] += latency * count
        self._counts[server_id] += count

    # ------------------------------------------------------------------ #
    # epoch close
    # ------------------------------------------------------------------ #
    def close_epoch(self, window: Tuple[float, float] = (0.0, 0.0)) -> List[LatencyReport]:
        """Close the open epoch; one report per tracked server.

        ``window`` is the wall-clock ``(start, end)`` of the epoch,
        recorded on every report for diagnostics (the simulator puts
        simulated time there; the service puts monotonic offsets).
        """
        reports: List[LatencyReport] = []
        for sid in self._sums:
            count = self._counts[sid]
            if count:
                mean = self._sums[sid] / count
                self._idle_rounds[sid] = 0
            else:
                mean = math.nan
                self._idle_rounds[sid] += 1
            reports.append(
                LatencyReport(
                    server_id=sid,
                    mean_latency=mean,
                    request_count=count,
                    window=window,
                    idle_rounds=self._idle_rounds[sid],
                    prev_mean_latency=self._prev_mean[sid],
                )
            )
            self._prev_mean[sid] = mean
            self._sums[sid] = 0.0
            self._counts[sid] = 0
        return reports

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        open_samples = sum(self._counts.values())
        return f"<EpochBatcher servers={len(self._sums)} pending={open_samples}>"
