"""Workload utility CLI: ``python -m repro.workloads``.

Generate, inspect, and archive workloads without writing code::

    python -m repro.workloads generate --kind synthetic --seed 1 -o run1.trc
    python -m repro.workloads generate --kind trace --scale 0.25 -o t.trc
    python -m repro.workloads inspect run1.trc
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .calibrate import offered_utilization
from .io import load_trace, save_trace
from .synthetic import SyntheticConfig, generate_synthetic
from .trace import TraceConfig, generate_trace_shaped


def _generate(args) -> int:
    if args.kind == "synthetic":
        cfg = SyntheticConfig()
        if args.scale != 1.0:
            cfg = replace(
                cfg,
                duration=cfg.duration * args.scale,
                target_requests=max(cfg.n_filesets, int(cfg.target_requests * args.scale)),
            )
        workload = generate_synthetic(cfg, seed=args.seed)
        capacity = cfg.total_capacity
    else:
        cfg = TraceConfig()
        if args.scale != 1.0:
            cfg = replace(
                cfg,
                duration=cfg.duration * args.scale,
                target_requests=max(cfg.n_filesets, int(cfg.target_requests * args.scale)),
            )
        workload = generate_trace_shaped(cfg, seed=args.seed)
        capacity = cfg.total_capacity
    save_trace(workload, args.output)
    print(
        f"wrote {args.output}: {len(workload)} requests, "
        f"{len(workload.catalog)} file sets, {workload.duration:.0f}s, "
        f"offered utilization {offered_utilization(workload, capacity):.2f} "
        f"of capacity {capacity:.0f}"
    )
    return 0


def _inspect(args) -> int:
    workload = load_trace(args.trace)
    arrivals, works = workload.arrivals, workload.works
    print(f"name:      {workload.name}")
    print(f"requests:  {len(workload)}")
    print(f"file sets: {len(workload.catalog)}")
    print(f"duration:  {workload.duration:.1f}s "
          f"(first arrival {arrivals.min():.2f}, last {arrivals.max():.2f})")
    print(f"work/req:  mean {works.mean():.3f}, p95 {np.percentile(works, 95):.3f}")
    print(f"total work: {workload.total_work:.0f} units")
    print("\nhottest file sets (by total work):")
    hot = sorted(workload.catalog, key=lambda fs: -fs.total_work)[:10]
    for fs in hot:
        share = workload.catalog.work_share(fs.name)
        print(f"  {fs.name:<24} {fs.n_requests:>8} reqs  {share:6.1%} of work")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.workloads")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate and archive a workload")
    gen.add_argument("--kind", choices=("synthetic", "trace"), default="synthetic")
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=_generate)

    insp = sub.add_parser("inspect", help="summarize an archived trace")
    insp.add_argument("trace")
    insp.set_defaults(func=_inspect)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
