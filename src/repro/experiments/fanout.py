"""Zero-copy experiment fan-out: fork-shared payloads, streamed results.

The old fan-out pickled a full workload per job — for a four-system
comparison that is four multi-megabyte serializations *before any
simulation starts*, which is exactly why the parallel path used to
lose to sequential. This module fixes the root cause:

* **Zero-copy payload.** The caller's large shared object (workload +
  config) is published to a module global *before* the pool forks;
  every worker inherits it through the fork's copy-on-write pages and
  reads it back with :func:`shared_payload`. Nothing big crosses a
  pipe — jobs are tuples of a few strings and ints.
* **Pre-warmed pool.** Workers are forked (and the payload snapshot
  taken) by a round of no-op warmup tasks before the first real job is
  dispatched, so job latency never includes process start-up.
* **Chunked, streamed results.** Jobs go out as explicit per-chunk
  futures; results are gathered in *submission* order as each completes
  (the deterministic merge is inherited, not rebuilt).
* **Crash containment.** A worker dying takes the whole pool with it
  (``BrokenProcessPool``); instead of aborting the sweep, the chunk
  being waited on is retried once in a fresh pool, and if that pool
  dies too the chunk runs in-process as a last resort. Only the
  genuinely poisonous case — the job itself raising — stays a loud,
  propagated error; no partial result list ever escapes.

On platforms without the ``fork`` start method the payload is shipped
once per worker through the pool initializer — the old cost model, kept
as a documented fallback, behind the same API.

``multiprocessing`` and ``concurrent.futures`` are imported where a pool
is built: a one-worker run (the default of ``run_comparison``) never
loads them.
"""

from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = ["default_workers", "resolve_workers", "shared_payload", "stream_map"]

#: The fork-shared payload (set for the duration of one stream_map call).
_PAYLOAD: Any = None


def shared_payload() -> Any:
    """The payload published by the :func:`stream_map` caller.

    In a forked worker this is the parent's object via copy-on-write;
    in-process (one worker / one job) it is the object itself.
    """
    return _PAYLOAD


def default_workers() -> int:
    """The default worker count: the CPU count (``--workers`` overrides it)."""
    return os.cpu_count() or 1


def resolve_workers(workers: Optional[int] = None) -> int:
    """An explicit worker count, or the CPU-count default.

    The sweeps call this once up front and record the result in their
    payload, so every bench says how many workers produced it.
    """
    if workers is None:
        return default_workers()
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _set_payload(payload: Any) -> None:
    """Pool initializer for the no-fork fallback (payload via pickle)."""
    global _PAYLOAD
    _PAYLOAD = payload


def _warm() -> None:
    """No-op warmup task; running one per worker forces the forks."""


def _run_chunk(fn: Callable[[Any], Any], chunk: Sequence[Any]) -> List[Any]:
    """Run one chunk of jobs (module-level so it pickles)."""
    return [fn(job) for job in chunk]


def _new_pool(workers: int, payload: Any) -> ProcessPoolExecutor:
    """A warmed pool; workers fork after the payload global is set."""
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor

    if "fork" in mp.get_all_start_methods():
        # The payload global is set by the caller, *then* the workers
        # fork: each inherits it copy-on-write. The warmup round both
        # pre-forks the pool and pins the inheritance point before any
        # real job runs.
        pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=mp.get_context("fork")
        )
    else:  # pragma: no cover - non-fork platforms
        pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_set_payload,
            initargs=(payload,),
        )
    for future in [pool.submit(_warm) for _ in range(workers)]:
        future.result()
    return pool


def stream_map(
    fn: Callable[[Any], Any],
    jobs: Sequence[Any],
    payload: Any = None,
    max_workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> List[Any]:
    """Run ``fn(job)`` for every job; results in submission order.

    ``fn`` and the jobs must be picklable (module-level function, small
    tuples); ``payload`` need not be — it travels by fork. With one
    worker or one job everything runs in-process and no pool exists.

    A worker *crash* (process death, not an exception from ``fn``)
    breaks the whole pool; the chunk being waited on is charged one
    retry in a fresh pool, and if that pool breaks too the chunk runs
    in-process — where a genuine error from ``fn`` still propagates
    loudly. Chunks that merely had their pool shot out from under them
    are resubmitted without being charged.
    """
    global _PAYLOAD
    jobs = list(jobs)
    if not jobs:
        return []
    workers = max_workers if max_workers is not None else default_workers()
    workers = min(max(1, workers), len(jobs))
    _PAYLOAD = payload
    try:
        if workers <= 1 or len(jobs) <= 1:
            return [fn(job) for job in jobs]
        from concurrent.futures.process import BrokenProcessPool

        if chunk_size is None:
            chunk_size = max(1, len(jobs) // (workers * 4))
        chunks = [jobs[i : i + chunk_size] for i in range(0, len(jobs), chunk_size)]
        results: List[Optional[List[Any]]] = [None] * len(chunks)
        retried: set = set()
        pool = _new_pool(workers, payload)
        try:
            futures = {
                i: pool.submit(_run_chunk, fn, chunk)
                for i, chunk in enumerate(chunks)
            }
            index = 0
            while index < len(chunks):
                try:
                    # Futures resolve in submission order — deterministic
                    # merge for free, and no end-of-run batch join.
                    results[index] = futures[index].result()
                    index += 1
                    continue
                except BrokenProcessPool:
                    pass
                # A worker died and took the pool (and every outstanding
                # future) with it. Only the chunk we were waiting on is
                # charged a retry; the rest are innocent bystanders and
                # resubmit for free.
                pool.shutdown(wait=False)
                if index in retried:
                    print(
                        f"fan-out: chunk {index} crashed its retry pool too; "
                        "running it in-process",
                        file=sys.stderr,
                    )
                    results[index] = _run_chunk(fn, chunks[index])
                    index += 1
                else:
                    retried.add(index)
                    print(
                        f"fan-out: worker crashed (pool broken); retrying "
                        f"chunk {index} in a fresh pool",
                        file=sys.stderr,
                    )
                pending = [j for j in range(index, len(chunks)) if results[j] is None]
                if pending:
                    pool = _new_pool(workers, payload)
                    futures = {
                        j: pool.submit(_run_chunk, fn, chunks[j]) for j in pending
                    }
            return [item for chunk_results in results for item in chunk_results]
        finally:
            pool.shutdown(wait=False)
    finally:
        _PAYLOAD = None
