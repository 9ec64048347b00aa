"""The closed-loop load generator of ``service_saturate``, one process.

Started by :mod:`bench.service_workload` as ``python -m bench.loadgen``.

Holds ``--clients`` :class:`~repro.service.client.HardenedServiceClient`
objects on one event loop. Each issues ``drive(name, work=0.0)`` back to
back — the next request leaves only when the previous one's report has
been acknowledged — walking its own seeded permutation of the name set.
Zero-work echo makes locator + JSON codec + asyncio the whole cost.
With ``--cpu N`` the process first pins itself to that CPU.

Two lines go to standard output: ``{"window": "open"}`` when the
warm-up ends and the measured window opens, and the result record
when the window has closed and every client has disconnected. Latency is
taken around the whole ``drive`` call (locate → exec → report), for the
requests issued inside the window; the record carries each one's
completion time too, so the server side can cut the window into slices.
"""

import argparse
import asyncio
import json
import os
import random
import sys
import time


async def _client_loop(client, names, window, measured, servers) -> bool:
    """Drive requests until the window closes; ``False`` on any failure."""
    ok = True
    i = 0
    while True:
        start = time.perf_counter()
        if start >= window["stop"]:
            return ok
        outcome = await client.drive(names[i % len(names)], 0.0)
        done = time.perf_counter()
        i += 1
        ok = ok and outcome.ok
        servers.add(outcome.server)
        if start >= window["start"]:
            measured.append((done - window["start"], done - start))


async def _run(args) -> dict:
    from repro.engine.record import derive_seed
    from repro.service.client import HardenedServiceClient

    tracer = None
    if args.trace:
        from bench import layers
        from bench.trace import Tracer

        tracer = Tracer()
        layers.install_client(tracer)

    names = [f"/bench/{args.seed}/fs{i:04d}" for i in range(args.names)]
    clients, orders = [], []
    for index in range(args.clients):
        rng = random.Random(derive_seed(args.seed, f"bench-client-{index}"))
        order = list(names)
        rng.shuffle(order)
        orders.append(order)
        clients.append(HardenedServiceClient((args.host, args.port), rng=rng))
    cpu_start = time.process_time()
    measured, servers = [], set()
    try:
        for client in clients:
            await client.connect()
        now = time.perf_counter()
        window = {"start": now + args.warmup, "stop": now + args.warmup + args.measure}
        opener = asyncio.get_running_loop().call_later(
            args.warmup,
            lambda: print(json.dumps({"window": "open"}), flush=True),
        )
        oks = await asyncio.gather(
            *(
                _client_loop(client, order, window, measured, servers)
                for client, order in zip(clients, orders)
            )
        )
        opener.cancel()
    finally:
        for client in clients:
            await client.close()
        if tracer is not None:
            tracer.uninstall()
    return {
        "all_ok": all(oks),
        # (seconds into the window at completion, latency) per request
        # issued inside the window.
        "measured": measured,
        "servers": sorted(s for s in servers if s is not None),
        "loadgen_cpu_s": time.process_time() - cpu_start,
        "clients": [
            {
                "injected": c.injected,
                "completed": c.completed,
                "failed": c.failed,
                "lost": c.lost,
                "retries": c.retries,
                "redirects": c.redirects,
                "timeouts": c.timeouts,
                "conserved": c.conserved,
                "classified": c.classified,
            }
            for c in clients
        ],
        "client_durations": tracer.durations if tracer is not None else {},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--clients", type=int, required=True)
    parser.add_argument("--names", type=int, required=True)
    parser.add_argument("--warmup", type=float, required=True)
    parser.add_argument("--measure", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", type=int, default=None, help="pin this process to it")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    print(json.dumps(asyncio.run(_run(args))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
