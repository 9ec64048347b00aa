"""Command-line entry point: ``python -m repro.experiments``.

Examples::

    python -m repro.experiments --figure fig5
    python -m repro.experiments --figure fig8 --scale 0.2 --seed 7
    python -m repro.experiments --all --scale 0.1
    python -m repro.experiments chaos --seed 1
    python -m repro.experiments chaos --smoke --out /tmp/bench.json
    python -m repro.experiments scale --smoke
    python -m repro.experiments scale --out BENCH_scale.json
    python -m repro.experiments chaos-scale --smoke
    python -m repro.experiments chaos-scale --out BENCH_chaos_scale.json
    python -m repro.experiments control --smoke
    python -m repro.experiments control --out BENCH_control.json
    python -m repro.experiments claims
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time

from .figures import FIGURES
from .report import run_all_figures, run_figure
from .sweep import sweep_main, write_bench

#: Sweep subcommand → the module whose ``SWEEP`` spec describes it
#: (imported on dispatch, so ``--figure`` runs never load the sweeps).
SWEEPS = {"scale": "scale", "chaos-scale": "chaos_scale", "control": "control"}


def chaos_main(argv=None) -> int:
    """The ``chaos`` subcommand: fault-rate sweep → BENCH_robustness.json."""
    from .chaos import (
        DEFAULT_FAULT_RATES,
        DEFAULT_SCALE,
        render_chaos,
        run_chaos_sweep,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments chaos",
        description="Robustness sweep: seeded fault injection under "
        "continuous invariant checking.",
    )
    parser.add_argument("--seed", type=int, default=1, help="chaos + workload seed")
    parser.add_argument(
        "--scale", type=float, default=DEFAULT_SCALE, help="experiment scale in (0, 1]"
    )
    parser.add_argument(
        "--fault-rates",
        type=float,
        nargs="+",
        default=list(DEFAULT_FAULT_RATES),
        help="faults per simulated second, one run each",
    )
    parser.add_argument(
        "--out",
        default="BENCH_robustness.json",
        help="output path for the bench JSON",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny single-rate run (CI): scale 0.02, one fault rate",
    )
    args = parser.parse_args(argv)

    scale = 0.02 if args.smoke else args.scale
    # Smoke keeps the run tiny but picks the stormiest rate so faults
    # actually land (the quiet rate draws ~0 events at this scale).
    rates = [max(args.fault_rates)] if args.smoke else args.fault_rates
    t0 = time.time()
    payload = run_chaos_sweep(seed=args.seed, scale=scale, fault_rates=rates)
    write_bench(payload, args.out)
    print(render_chaos(payload))
    violations = sum(row["invariant_violations"] for row in payload["rows"])
    print(f"\nwrote {args.out}", file=sys.stderr)
    print(f"[done in {time.time() - t0:.1f}s]", file=sys.stderr)
    if violations:
        print(f"INVARIANT VIOLATIONS: {violations}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "chaos":
        return chaos_main(argv[1:])
    if argv and argv[0] == "claims":
        from .claims import main as claims_main

        return claims_main(argv[1:])
    if argv and argv[0] in SWEEPS:
        module = importlib.import_module(f".{SWEEPS[argv[0]]}", __package__)
        return sweep_main(module.SWEEP, argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the figures of Wu & Burns, HPDC 2004.",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--figure", choices=sorted(FIGURES), help="run one figure")
    group.add_argument("--all", action="store_true", help="run every figure")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="experiment scale in (0, 1]; 1.0 is the paper-sized run",
    )
    args = parser.parse_args(argv)

    t0 = time.time()
    if args.all:
        for name, text in run_all_figures(seed=args.seed, scale=args.scale).items():
            print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
            print(text)
    else:
        print(run_figure(args.figure, seed=args.seed, scale=args.scale))
    print(f"\n[done in {time.time() - t0:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
