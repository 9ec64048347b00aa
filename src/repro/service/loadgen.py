"""Multi-process load generation: replay a workload against the service.

The bench replays the same synthetic workload family the simulator
uses (:func:`repro.workloads.generate_synthetic` — Pareto bursts,
lognormal work, §5.1's ``X ~ U[1,10]`` file-set weights), but paced
against the wall clock: a request scheduled at ``t`` seconds is
injected ``t`` seconds after the shared run origin. Requests fan out
over ``config.clients`` forked worker processes, each running its own
event loop and one :class:`~repro.service.client.HardenedServiceClient`
— real processes, real sockets, real contention, which is the point.

The schedule is split round-robin by arrival rank, so every worker
carries an arrival-sorted slice of the same burst structure, and the
union reconstructs the schedule exactly. Workers report back over a
``multiprocessing`` queue: final ledger counters plus the full
per-request trace (the twin's request timeline).

Platforms without the ``fork`` start method (and in-process tests) use
``processes=False``, which runs every client as a task on the calling
loop — same code path, no isolation.
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp
import queue as queue_module
import random
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..engine.record import derive_seed
from ..retry import RetryPolicy
from ..workloads.synthetic import SyntheticConfig, Workload, generate_synthetic
from .client import HardenedServiceClient
from .config import ServiceConfig
from .recording import RequestTrace

__all__ = ["ClientResult", "make_schedule", "split_schedule", "run_clients"]

#: (fileset, arrival-offset seconds, work units) — one scheduled request.
Job = Tuple[str, float, float]


@dataclass
class ClientResult:
    """One load generator's final ledger plus its request traces."""

    client_index: int
    injected: int = 0
    completed: int = 0
    failed: int = 0
    retries: int = 0
    redirects: int = 0
    timeouts: int = 0
    #: Ledger residue — nonzero means the run lost track of a request.
    lost: int = 0
    conserved: bool = True
    classified: bool = True
    traces: List[RequestTrace] = field(default_factory=list)


def make_schedule(config: ServiceConfig) -> Workload:
    """The wall-clock workload for one service bench run.

    Reuses the simulator's synthetic generator with the service's
    horizon as the duration; capacity is expressed in work units per
    second (``power / time_scale`` summed over servers), so the
    configured utilization means the same thing it means in simulation.
    """
    synth = SyntheticConfig(
        n_filesets=config.n_filesets,
        duration=config.duration_seconds,
        target_requests=config.target_requests,
        utilization=config.utilization,
        total_capacity=config.total_capacity / config.time_scale,
    )
    return generate_synthetic(synth, seed=config.seed)


def split_schedule(workload: Workload, n_clients: int) -> List[List[Job]]:
    """Round-robin the schedule by arrival rank into per-client slices.

    Each slice stays arrival-sorted; their union is the exact schedule.
    """
    names = workload.catalog.names
    jobs = [
        (names[i], arrival, work)
        for i, arrival, work in zip(
            workload.fs_idx.tolist(), workload.arrivals.tolist(), workload.works.tolist()
        )
    ]
    return [jobs[k::n_clients] for k in range(n_clients)]


# ---------------------------------------------------------------------- #
# one client's replay
# ---------------------------------------------------------------------- #
async def replay_client(
    client_index: int,
    jobs: Sequence[Job],
    locator: Tuple[str, int],
    t0: float,
    seed: int,
    retry: Optional[RetryPolicy] = None,
) -> ClientResult:
    """Replay one schedule slice through a hardened client.

    ``t0`` is the shared run origin on the ``time.monotonic`` timebase;
    a job with arrival ``t`` is injected at ``t0 + t``.
    """
    rng = random.Random(derive_seed(seed, f"service-client-{client_index}"))
    client = HardenedServiceClient(locator, policy=retry, rng=rng)
    tasks: List[asyncio.Task] = []
    try:
        await client.connect()
        for name, arrival, work in jobs:
            delay = t0 + arrival - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(client.drive(name, work)))
        outcomes = await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            if not task.done():
                task.cancel()
        await client.close()
    result = ClientResult(
        client_index=client_index,
        injected=client.injected,
        completed=client.completed,
        failed=client.failed,
        retries=client.retries,
        redirects=client.redirects,
        timeouts=client.timeouts,
        lost=client.lost,
        conserved=client.conserved,
        classified=client.classified,
    )
    for (name, arrival, work), outcome in zip(jobs, outcomes):
        result.traces.append(
            RequestTrace(
                fileset=name,
                arrival=arrival,
                work=work,
                server=outcome.server,
                latency=outcome.latency,
                ok=outcome.ok,
            )
        )
    return result


def _worker_main(
    client_index: int,
    jobs: List[Job],
    locator: Tuple[str, int],
    t0: float,
    seed: int,
    queue: "mp.queues.Queue",
) -> None:
    """Forked worker entry point: fresh loop, one client, one result."""
    try:
        result = asyncio.run(
            replay_client(client_index, jobs, locator, t0, seed)
        )
        queue.put((client_index, result, None))
    except BaseException as exc:  # the parent must learn of any death
        queue.put((client_index, None, repr(exc)))


async def run_clients(
    config: ServiceConfig,
    workload: Workload,
    locator: Tuple[str, int],
    t0: float,
    processes: bool = True,
) -> List[ClientResult]:
    """Fan the workload out over the configured client count.

    With ``processes=True`` (and ``fork`` available) each client is a
    forked process; the awaiting side polls the result queue without
    blocking the caller's event loop, which keeps serving the locator
    and echo servers in the meantime. With ``processes=False`` the
    clients run as tasks on the calling loop.
    """
    slices = split_schedule(workload, config.clients)
    if not processes or "fork" not in mp.get_all_start_methods():
        return list(
            await asyncio.gather(
                *(
                    replay_client(i, jobs, locator, t0, config.seed)
                    for i, jobs in enumerate(slices)
                )
            )
        )
    ctx = mp.get_context("fork")
    queue: "mp.queues.Queue" = ctx.Queue()
    procs = [
        ctx.Process(
            target=_worker_main,
            args=(i, jobs, locator, t0, config.seed, queue),
            daemon=True,
        )
        for i, jobs in enumerate(slices)
    ]
    for proc in procs:
        proc.start()
    results: List[ClientResult] = []
    failures: List[str] = []
    try:
        for _ in procs:
            while True:
                try:
                    index, result, error = queue.get_nowait()
                    break
                except queue_module.Empty:
                    await asyncio.sleep(0.05)
            if error is not None:
                failures.append(f"client {index}: {error}")
            else:
                results.append(result)
    finally:
        for proc in procs:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - watchdog
                proc.terminate()
    if failures:
        raise RuntimeError("load generator(s) crashed: " + "; ".join(failures))
    results.sort(key=lambda r: r.client_index)
    return results
