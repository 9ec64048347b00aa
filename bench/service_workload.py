"""``service_saturate``: the live tier's closed-loop capacity number.

The pass process is the server side: one
:class:`~repro.service.locator.LocatorService` with live tuning on and
five :class:`~repro.service.fileserver.EchoFileServer` objects (the
paper's powers) on one event loop. One separate load-generator process
(:mod:`bench.loadgen`) holds :data:`CLIENTS` clients on one event loop
and drives zero-work requests back to back. No engine layer runs.

Eight requests in flight keep both event loops supplied with work, so the
rate is set by what a request costs the busier process. With two in
flight each process sleeps between messages and the rate is set by how
fast the host wakes an idle virtual CPU: identical passes then read
1.5–3.6 k req/s, against 3.6–5.4 k at eight. Each process is pinned to a
CPU of its own for the same reason: left alone, the scheduler keeps
moving the two onto one core and apart again.

Closed loop on purpose: callers that each wait for a reply are what a
metadata client is, and at ~0.25 ms per request an open-loop generator
paced by ``asyncio.sleep`` measures the sleep granularity, not the
service (see ``bench/README.md`` for the rejected numbers).
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import sys
import time
from typing import Any, Dict, List

from repro.service.config import PAPER_POWERS
from repro.service.fileserver import EchoFileServer
from repro.service.locator import LocatorService

from .layers import new_record

CLIENTS = 8
N_NAMES = 200
EPOCH_S = 1.0
#: Full-size warm-up, in seconds: long enough to open every lazy
#: connection and resolve every name once.
WARMUP_S = 0.3
#: The measured window is cut into slices and the pass reports the
#: median slice: on a shared box the processor changes speed every few
#: seconds, and a short slice sits inside one speed.
SLICES = 3
SLICE_S = 0.4


def _slice_stats(measured: List[List[float]], slice_s: float) -> Dict[str, float]:
    """Median over the slices of each slice's rate, p50 and p99 latency
    (the latter two under their per-layer metric names)."""
    slices: List[List[float]] = [[] for _ in range(SLICES)]
    for done_at, latency in measured:
        index = int(done_at / slice_s)
        if index < SLICES:
            slices[index].append(latency)
    filled = [sorted(s) for s in slices if s]
    return {
        "req_per_s": statistics.median(len(s) / slice_s for s in filled),
        "service.client.latency_p50_ms": (
            statistics.median(statistics.median(s) for s in filled) * 1e3
        ),
        "service.client.latency_p99_ms": (
            statistics.median(s[int(0.99 * len(s))] for s in filled) * 1e3
        ),
        "samples_per_slice": statistics.median(len(s) for s in filled),
    }


def _pin_cpus() -> List[str]:
    """Pin this process to one CPU and return the load generator's
    arguments that pin it to another (none where there is no second CPU,
    or no way to pin)."""
    if not hasattr(os, "sched_setaffinity"):
        return []
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return []
    os.sched_setaffinity(0, {cpus[0]})
    return ["--cpu", str(cpus[1])]


async def _saturate(run) -> Dict[str, Any]:
    powers = {f"s{i}": power for i, power in enumerate(PAPER_POWERS)}
    slice_s = SLICE_S * min(1.0, run.scale)
    loadgen_pin = _pin_cpus()
    servers = [EchoFileServer(sid, power) for sid, power in powers.items()]
    locator = None
    loadgen = None
    try:
        with run.stage("placement"):
            addresses = {s.server_id: await s.start() for s in servers}
            locator = LocatorService(
                server_powers=powers,
                addresses=addresses,
                epoch_seconds=EPOCH_S,
                hash_seed=run.seed,
            )
            host, port = await locator.start()
        with run.stage("workload"):
            # Spawn, connect and warm up: everything a client pays
            # before the first measured request.
            cpu_start = time.process_time()
            loadgen = await asyncio.create_subprocess_exec(
                sys.executable, "-m", "bench.loadgen",
                "--host", host, "--port", str(port),
                "--seed", str(run.seed),
                "--clients", str(CLIENTS),
                "--names", str(run.sized(N_NAMES, 8)),
                "--warmup", str(WARMUP_S * min(1.0, run.scale)),
                "--measure", str(SLICES * slice_s),
                "--trace", str(int(run.tracer is not None)),
                *loadgen_pin,
                stdout=asyncio.subprocess.PIPE,
                limit=1 << 26,
            )
            opened = await loadgen.stdout.readline()
        # The load generator's announcement that its warm-up ended is
        # what ends set-up.
        with run.stage("drive"):
            closed = await loadgen.stdout.readline()
            await loadgen.wait()
            server_cpu_s = time.process_time() - cpu_start
        with run.stage("report"):
            if loadgen.returncode != 0 or not opened or not closed:
                raise RuntimeError(f"load generator failed (exit {loadgen.returncode})")
            # Fold the open partial window in, as the service bench does.
            locator.close_epoch()
    finally:
        with run.stage("report"):
            if loadgen is not None and loadgen.returncode is None:
                loadgen.kill()
                await loadgen.wait()
            if locator is not None:
                await locator.stop()
            for server in servers:
                await server.stop()

    with run.stage("report"):
        load = json.loads(closed)
        measured = load.pop("measured")
        clients = load["clients"]
        total = sum(c["completed"] for c in clients)
        failed = sum(c["failed"] + c["lost"] for c in clients)
        sliced = _slice_stats(measured, slice_s)
        record = new_record()
        record.update(
            attempted=sum(c["injected"] for c in clients),
            completed=total,
            failed=failed,
            checks={
                "every_drive_ok": bool(load["all_ok"]) and failed == 0,
                "ledgers_conserved": all(c["conserved"] for c in clients),
                "ledgers_classified": all(c["classified"] for c in clients),
                # One locate and one echo per completed request: no
                # hidden retry inflates the denominator.
                "one_locate_per_request": locator.locates == total,
                "one_exec_per_request": sum(s.completed for s in servers) == total,
                "no_retry": sum(c["retries"] + c["timeouts"] for c in clients) == 0,
                "only_live_servers_named": set(load["servers"]) <= set(locator.addresses),
                "requests_in_every_slice": len(measured) >= 100 * SLICES * min(1.0, run.scale),
            },
            # Wall-clock driven: nothing here is a pure function of the
            # seed, so ``exact`` stays empty.
            untraced_layers={k: v for k, v in sliced.items() if k.startswith("service.")},
            service={
                "req_per_s": sliced["req_per_s"],
                "samples_per_slice": sliced["samples_per_slice"],
                "requests_measured": len(measured),
                "requests_total": total,
                "locates": locator.locates,
                "epochs": len(locator.recording.epochs),
                "retries": sum(c["retries"] for c in clients),
                "redirects": sum(c["redirects"] for c in clients),
                "server_cpu_s": server_cpu_s,
                "loadgen_cpu_s": load["loadgen_cpu_s"],
                "client_durations": load["client_durations"],
            },
        )
    return record


def service_saturate(run) -> Dict[str, Any]:
    """Closed loop, zero work: locator + codec + asyncio are the whole cost."""
    return asyncio.run(_saturate(run))
