"""The service bench: servers + locator + clients on loopback, measured.

``python -m repro.service bench`` orchestrates one complete live run:

1. start one :class:`~repro.service.fileserver.EchoFileServer` per
   configured power on ephemeral loopback ports;
2. start the :class:`~repro.service.locator.LocatorService` over them,
   epoch loop armed on a shared run origin;
3. fork the load-generating client processes
   (:mod:`~repro.service.loadgen`) against the same origin and let the
   schedule drain;
4. close the final epoch, stop everything, and fold the client traces
   into the locator's :class:`~repro.service.recording.ServiceRecording`;
5. run the digital-twin parity harness (:mod:`~repro.service.twin`);
6. emit the schema-gated ``BENCH_service.json`` payload.

The payload's hard gates — checked here *and* by
``tools/check_bench_schema.py`` on the committed artifact:

* ``requests_lost == 0`` — the conservation ledger accounts for every
  injected request, on real sockets;
* ``latency_samples == requests_completed`` — every completed request's
  latency sample reached the locator (gated here only);
* ``twin.decision_ok`` — the recorded control timeline replays exactly;
* ``twin.sim_ok`` — the simulator tracks the live region trajectory
  within the documented tolerance.
"""

from __future__ import annotations

import json
import math
import time
from typing import Dict, List, Optional, Tuple

from .. import __version__
from .config import ServiceConfig
from .fileserver import EchoFileServer
from .loadgen import ClientResult, make_schedule, run_clients
from .locator import LocatorService
from .recording import ServiceRecording
from .twin import TwinReport, run_twin

__all__ = ["SCHEMA_VERSION", "run_bench", "bench_payload"]

#: Bump alongside ``tools/check_bench_schema.py`` when the payload
#: shape changes.
SCHEMA_VERSION = 1

#: Load-generator start margin: the run origin sits this far in the
#: future so forked clients are up before the first arrival is due.
START_MARGIN_S = 0.3


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank ``q`` quantile: the smallest value with at least a
    ``q`` share of the values at or below it."""
    if not sorted_values:
        return math.nan
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[index]


async def run_bench(
    config: ServiceConfig,
    processes: bool = True,
    controller: Optional[object] = None,
) -> Tuple[ServiceRecording, List[ClientResult], LocatorService, TwinReport]:
    """One live run end to end; returns every measurement artifact."""
    servers = [
        EchoFileServer(sid, power, time_scale=config.time_scale, host=config.host)
        for sid, power in config.server_powers.items()
    ]
    locator: Optional[LocatorService] = None
    try:
        addresses: Dict[str, Tuple[str, int]] = {}
        for server in servers:
            addresses[server.server_id] = await server.start()
        locator = LocatorService(
            server_powers=dict(config.server_powers),
            addresses=addresses,
            epoch_seconds=config.epoch_seconds,
            hash_seed=config.seed,
            controller=controller,
            host=config.host,
            port=config.port,
            time_scale=config.time_scale,
        )
        workload = make_schedule(config)
        t0 = time.monotonic() + START_MARGIN_S
        host, port = await locator.start(t0=t0)
        results = await run_clients(
            config, workload, (host, port), t0, processes=processes
        )
        # The clients have all joined: every request is settled, and each
        # client's close flushed its folded reports and saw the locator
        # answer after them. One forced epoch close folds the samples of
        # the open partial window into the recording.
        locator.close_epoch()
    finally:
        if locator is not None:
            await locator.stop()
        for server in servers:
            await server.stop()
    recording = locator.recording
    for result in results:
        recording.requests.extend(result.traces)
    twin = run_twin(recording, controller)
    return recording, results, locator, twin


def bench_payload(
    config: ServiceConfig,
    profile: str,
    recording: ServiceRecording,
    results: List[ClientResult],
    locator: LocatorService,
    twin: TwinReport,
) -> dict:
    """The ``BENCH_service.json`` payload for one finished run."""
    injected = sum(r.injected for r in results)
    completed = sum(r.completed for r in results)
    failed = sum(r.failed for r in results)
    lost = sum(r.lost for r in results)
    conserved = all(r.conserved for r in results)
    classified = all(r.classified for r in results)
    latencies = sorted(
        t.latency for t in recording.requests if t.ok and math.isfinite(t.latency)
    )
    epochs = recording.epochs
    horizon = max(
        (e.window[1] for e in epochs), default=config.duration_seconds
    )
    # Per-epoch rows: completions bucketed by completion time.
    per_epoch_done: Dict[int, List[float]] = {}
    for trace in recording.requests:
        if not trace.ok or not math.isfinite(trace.latency):
            continue
        done_at = trace.arrival + trace.latency
        bucket = min(int(done_at / config.epoch_seconds), max(len(epochs) - 1, 0))
        per_epoch_done.setdefault(bucket, []).append(trace.latency)
    rows = []
    prev_lengths = dict(recording.initial_lengths)
    for i, epoch in enumerate(epochs):
        keys = set(prev_lengths) | set(epoch.lengths_after)
        movement = sum(
            abs(epoch.lengths_after.get(k, 0.0) - prev_lengths.get(k, 0.0))
            for k in keys
        )
        prev_lengths = dict(epoch.lengths_after)
        done = sorted(per_epoch_done.get(i, []))
        rows.append(
            {
                "epoch": epoch.index,
                "start_s": epoch.window[0],
                "end_s": epoch.window[1],
                "completed": len(done),
                "requests_per_sec": len(done) / config.epoch_seconds,
                "mean_latency_s": (sum(done) / len(done)) if done else None,
                "p99_latency_s": _percentile(done, 0.99) if done else None,
                "average_latency_s": (
                    None
                    if math.isnan(epoch.average_latency)
                    else epoch.average_latency
                ),
                "movement_l1": movement,
                "moved_filesets": epoch.moved,
            }
        )
    convergence = locator.convergence_epoch()
    return {
        "bench": "service",
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "profile": profile,
        "seed": config.seed,
        "clients": config.clients,
        "epoch_seconds": config.epoch_seconds,
        "duration_s": horizon,
        "time_scale": config.time_scale,
        "n_servers": len(config.server_powers),
        "server_powers": {k: float(v) for k, v in config.server_powers.items()},
        "n_filesets": config.n_filesets,
        "requests_injected": injected,
        "requests_completed": completed,
        "requests_failed": failed,
        "requests_lost": lost,
        "conserved": conserved,
        "classified": classified,
        "retries": sum(r.retries for r in results),
        "redirects": sum(r.redirects for r in results),
        "timeouts": sum(r.timeouts for r in results),
        "requests_per_sec": completed / horizon if horizon > 0 else 0.0,
        "mean_latency_s": (sum(latencies) / len(latencies)) if latencies else None,
        "p50_latency_s": _percentile(latencies, 0.50) if latencies else None,
        "p99_latency_s": _percentile(latencies, 0.99) if latencies else None,
        "epochs": len(epochs),
        "convergence_epochs": convergence,
        "converged": convergence is not None,
        "locates": locator.locates,
        "latency_samples": locator.samples_received,
        "twin": {
            "decision_max_l1": twin.decision_max_l1,
            "decision_epochs": twin.decision_epochs,
            "decision_ok": twin.decision_ok,
            "decision_tolerance": twin.decision_tolerance,
            "sim_max_l1": twin.sim_max_l1,
            "sim_epochs": twin.sim_epochs,
            "sim_ok": twin.sim_ok,
            "sim_tolerance": twin.sim_tolerance,
        },
        "twin_ok": twin.ok,
        "rows": rows,
    }


def gate_failures(payload: dict) -> List[str]:
    """The bench's own hard gates (CI fails the job on any of these)."""
    problems = []
    if payload["requests_lost"] != 0:
        problems.append(f"requests_lost = {payload['requests_lost']} (must be 0)")
    if not payload["conserved"]:
        problems.append("conservation ledger violated")
    if not payload["classified"]:
        problems.append("in-flight classification violated")
    if payload["requests_completed"] == 0:
        problems.append("no requests completed")
    if payload["latency_samples"] != payload["requests_completed"]:
        problems.append(
            f"latency_samples = {payload['latency_samples']} "
            f"(must equal requests_completed = {payload['requests_completed']})"
        )
    if not payload["converged"]:
        problems.append("live tuning loop did not converge within the run")
    if not payload["twin"]["decision_ok"]:
        problems.append(
            f"twin decision replay deviated by {payload['twin']['decision_max_l1']}"
        )
    if not payload["twin"]["sim_ok"]:
        problems.append(
            f"twin simulation replay off by L1={payload['twin']['sim_max_l1']} "
            f"(tolerance {payload['twin']['sim_tolerance']})"
        )
    return problems


def write_payload(payload: dict, path: str) -> None:
    """Write the artifact (strict JSON — no NaN/Infinity tokens)."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
