"""Content fingerprints of workloads and experiment results.

Every figure and benchmark replays deterministic simulations: the same
``(SyntheticConfig, seed)`` pair always produces the same request
schedule, and the same ``(workload, config, system)`` triple the same
:class:`~repro.engine.record.ClusterResult`. Nothing is stored — each
figure regenerates its workload from its config and seed — but the
determinism tests and ``bench/`` hold runs to that contract with two
canonical SHA-256 digests:

* :func:`workload_fingerprint` over a workload's schedule;
* :func:`result_fingerprint` over every measured field of a result, so
  parallel and sequential execution can be asserted *byte-identical*.

The module keeps its old name, from when it also held a workload and
result store, because the benchmark imports the fingerprints from here.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..engine.record import ClusterResult
    from ..workloads.synthetic import Workload

__all__ = ["workload_fingerprint", "result_fingerprint"]

#: Bump when the fingerprinted layout of Workload/ClusterResult changes.
_SCHEMA = 1


def _hash_update(h, *parts: object) -> None:
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x00")


def _hash_array(h, array: np.ndarray, dtype=None) -> None:
    """Feed ``array``'s bytes to ``h`` without copying a contiguous one.

    The digest equals hashing ``.tobytes()``: a C-contiguous buffer
    holds exactly those bytes, and anything else (a strided view, a
    different ``dtype``) is copied once into one first.
    """
    h.update(memoryview(np.ascontiguousarray(array, dtype=dtype)))


def workload_fingerprint(workload: "Workload") -> str:
    """Content hash of a workload's schedule (names, times, work)."""
    h = hashlib.sha256()
    _hash_update(h, "workload", _SCHEMA, workload.duration, workload.catalog.names)
    _hash_array(h, workload.arrivals)
    _hash_array(h, workload.works)
    # Hash index values, not storage width: widened to int64, so the
    # digest does not depend on the column's dtype.
    _hash_array(h, workload.fs_idx, dtype=np.int64)
    return h.hexdigest()


def result_fingerprint(result: "ClusterResult") -> str:
    """Canonical digest over every measured field of a result.

    Two results with equal fingerprints are byte-identical in all the
    data the figures consume: per-request latencies, per-server series
    and tallies, the movement log, counters, and the event count. This
    is the equality the parallel runner is held to.
    """
    h = hashlib.sha256()
    _hash_update(
        h,
        "result",
        _SCHEMA,
        result.policy_name,
        result.duration,
        result.submitted,
        result.completed,
        result.shared_state_entries,
        result.events_processed,
    )
    _hash_array(h, result.all_latencies, dtype=np.float64)
    for m in result.movement:
        _hash_update(h, "move", m.round_index, m.time, m.kind, m.moves, m.moved_work_share)
    for sid in sorted(result.server_latency, key=repr):
        series = result.server_latency[sid]
        _hash_update(h, "series", sid, len(series))
        _hash_array(h, series.times())
        _hash_array(h, series.values())
        tally = result.server_tally[sid]
        _hash_update(h, "tally", sid, tally.count, tally.mean, tally.minimum, tally.maximum)
        _hash_update(
            h,
            "server",
            sid,
            result.server_requests.get(sid),
            result.server_utilization.get(sid),
        )
    return h.hexdigest()
