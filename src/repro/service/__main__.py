"""``python -m repro.service`` — the live-service command line.

Subcommands
-----------
``bench``
    The full loopback bench: echo servers + locator + forked load
    generators, a real wall-clock tuning loop, the digital-twin parity
    harness, and a schema-gated ``BENCH_service.json``. ``--smoke``
    selects the 2-server CI profile (~5 s); the default is the paper's
    5-power profile. Exits nonzero when any hard gate fails
    (``requests_lost != 0``, no convergence, twin parity broken), so CI
    can call it directly.
``serve``
    Stand up echo servers plus the locator and keep serving until
    interrupted — for poking at the wire protocol by hand.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from dataclasses import replace
from typing import List, Optional

from .bench import bench_payload, gate_failures, run_bench, write_payload
from .config import ServiceConfig, full_config, smoke_config
from .fileserver import EchoFileServer
from .locator import LocatorService


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="ANU as a live placement service (see DESIGN.md §10).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run the loopback service bench")
    bench.add_argument(
        "--smoke",
        action="store_true",
        help="CI profile: 2 servers, ~5 seconds of load",
    )
    bench.add_argument("--seed", type=int, default=0, help="master seed")
    bench.add_argument(
        "--clients", type=int, default=None, help="override client-process count"
    )
    bench.add_argument(
        "--inline",
        action="store_true",
        help="run load generators as tasks instead of forked processes",
    )
    bench.add_argument(
        "--out",
        default=None,
        help="write the payload here (default: print to stdout)",
    )
    bench.add_argument(
        "--no-gate",
        action="store_true",
        help="report gate failures but exit 0 anyway",
    )

    serve = sub.add_parser("serve", help="run servers + locator until interrupted")
    serve.add_argument("--port", type=int, default=0, help="locator port (0=ephemeral)")
    serve.add_argument("--seed", type=int, default=0, help="hash-family seed")
    serve.add_argument(
        "--epoch-seconds", type=float, default=1.0, help="tuning-epoch length"
    )
    return parser


def _bench_config(args: argparse.Namespace) -> ServiceConfig:
    config = smoke_config(args.seed) if args.smoke else full_config(args.seed)
    if args.clients is not None:
        config = replace(config, clients=args.clients)
    return config


def _cmd_bench(args: argparse.Namespace) -> int:
    config = _bench_config(args)
    profile = "smoke" if args.smoke else "full"
    recording, results, locator, twin = asyncio.run(
        run_bench(config, processes=not args.inline)
    )
    payload = bench_payload(config, profile, recording, results, locator, twin)
    if args.out:
        write_payload(payload, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True, allow_nan=False)
        sys.stdout.write("\n")
    summary = (
        f"[bench:{profile}] {payload['requests_completed']}/"
        f"{payload['requests_injected']} completed, "
        f"{payload['requests_per_sec']:.1f} req/s, "
        f"p99={payload['p99_latency_s']}, "
        f"converged at epoch {payload['convergence_epochs']}, "
        f"twin_ok={payload['twin_ok']}"
    )
    print(summary, file=sys.stderr)
    problems = gate_failures(payload)
    for problem in problems:
        print(f"[bench:{profile}] GATE FAILED: {problem}", file=sys.stderr)
    if problems and not args.no_gate:
        return 1
    return 0


async def _serve(config: ServiceConfig) -> None:
    servers: List[EchoFileServer] = [
        EchoFileServer(sid, power, time_scale=config.time_scale, host=config.host)
        for sid, power in config.server_powers.items()
    ]
    addresses = {}
    for server in servers:
        addresses[server.server_id] = await server.start()
    locator = LocatorService(
        server_powers=dict(config.server_powers),
        addresses=addresses,
        epoch_seconds=config.epoch_seconds,
        hash_seed=config.seed,
        host=config.host,
        port=config.port,
        time_scale=config.time_scale,
    )
    host, port = await locator.start()
    print(f"locator on {host}:{port}", file=sys.stderr)
    for sid, (shost, sport) in addresses.items():
        print(f"  server {sid} on {shost}:{sport}", file=sys.stderr)
    try:
        while True:
            await asyncio.sleep(3600)
    except asyncio.CancelledError:
        pass
    finally:
        await locator.stop()
        for server in servers:
            await server.stop()


def _cmd_serve(args: argparse.Namespace) -> int:
    config = replace(
        full_config(args.seed), port=args.port, epoch_seconds=args.epoch_seconds
    )
    try:
        asyncio.run(_serve(config))
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "bench":
        return _cmd_bench(args)
    return _cmd_serve(args)


if __name__ == "__main__":
    sys.exit(main())
