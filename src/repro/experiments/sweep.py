"""The one sweep runner behind ``scale``, ``chaos-scale`` and ``control``.

A sweep is a grid of *cells* — every point crossed with every value of
each axis (policies; scenarios × controllers) — and each cell is one
engine run rendered as one bench row. What differs between sweeps is
declared in a :class:`SweepSpec`; what they share lives here, once:

* :func:`run_sweep` generates each point's shared inputs (workload,
  fault script) once in the parent, fans the cells out through
  :func:`repro.experiments.fanout.stream_map` — the inputs reach the
  workers by fork, zero copies — and merges the rows in submission
  order under the common payload header. One worker (or one CPU) runs
  every cell in-process; the payload is byte-identical either way — a
  pure function of (points, seed, axes). Host time is not a sweep
  column: ``bench/`` is its one authority.
* :func:`sweep_main` derives the subcommand's flags from the spec.
* :func:`write_bench` serializes a payload canonically; the shape is
  guarded by ``tools/check_bench_schema.py``.
* the row columns every sweep spells the same way.

A new sweep supplies a point dataclass (``n_servers``, ``n_filesets``,
``n_requests``, ``duration``, ``tuning_interval``), a ``prepare`` and a
``cell`` function, a renderer, and — if a bad row must fail CI — an
exit rule; then registers its module in ``experiments/__main__.py``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cluster.cache import CacheConfig
from ..engine import ClusterConfig
from ..engine.record import ClusterResult
from ..metrics.consistency import consistency_report
from ..policies.base import LoadManager, RelocationStats
from ..workloads.scale import ArrayWorkload, ScaleConfig, generate_scale
from .fanout import resolve_workers, shared_payload, stream_map

__all__ = [
    "SweepSpec",
    "run_sweep",
    "sweep_main",
    "write_bench",
    "format_point_label",
    "scale_powers",
    "sweep_cluster_config",
    "point_workload",
    "point_columns",
    "latency_columns",
    "policy_columns",
]

Row = Dict[str, object]


@dataclass(frozen=True)
class SweepSpec:
    """What one sweep supplies; everything else is :func:`run_sweep`."""

    #: CLI subcommand (``chaos-scale``); the payload's ``bench`` key and
    #: the default ``BENCH_<bench>.json`` spell it with underscores.
    name: str
    #: Bumped on any change to the sweep's row/payload shape.
    schema_version: int
    description: str
    points: Sequence[object]
    smoke_points: Sequence[object]
    #: Axis name → default values, outermost loop first. Each is a
    #: ``nargs="+"`` flag, a payload key, and a positional of ``cell``.
    axes: Mapping[str, Tuple[str, ...]]
    #: ``prepare(point, seed, axes)`` → the point's shared inputs.
    prepare: Callable[[object, int, Mapping[str, Sequence[str]]], object]
    #: ``cell(point, *axis_values, seed=, shared=)`` → row.
    cell: Callable[..., Row]
    render: Callable[[Row], str]
    #: ``header(seed, rows)`` → the sweep's own payload keys.
    header: Optional[Callable[[int, List[Row]], Row]] = None
    #: ``failure(payload)`` → why the CLI must exit 1, or ``None``.
    failure: Optional[Callable[[Row], Optional[str]]] = None

    @property
    def bench(self) -> str:
        return self.name.replace("-", "_")


def _run_cell(job: Tuple[object, ...]) -> Row:
    """One sweep cell; reads the fork-shared payload."""
    point_idx, *values = job
    cell, points, shared, seed = shared_payload()
    return cell(points[point_idx], *values, seed=seed, shared=shared[point_idx])


def run_sweep(
    spec: SweepSpec,
    points: Optional[Sequence[object]] = None,
    seed: int = 1,
    workers: Optional[int] = None,
    **axes: object,
) -> Row:
    """Run every (point × axis values) cell of ``spec``; returns the payload.

    ``axes`` overrides axis values (``policies=("anu",)``) by name.
    Shared inputs are generated once per point in the parent, so every
    cell of a point sees identical arrivals (and fault script) — the
    comparison across an axis is apples-to-apples — and cells merge in
    submission order, so the payload never depends on the worker count.
    """
    unknown = set(axes) - set(spec.axes)
    if unknown:
        raise TypeError(f"{spec.name} sweep has no axis {sorted(unknown)}")
    points = list(spec.points if points is None else points)
    values = {name: list(axes.get(name, spec.axes[name])) for name in spec.axes}
    shared = [spec.prepare(point, seed, values) for point in points]
    rows = stream_map(
        _run_cell,
        list(itertools.product(range(len(points)), *values.values())),
        payload=(spec.cell, points, shared, seed),
        max_workers=resolve_workers(workers),
        chunk_size=1,
    )
    return {
        "bench": spec.bench,
        "schema_version": spec.schema_version,
        "seed": seed,
        **values,
        **(spec.header(seed, rows) if spec.header is not None else {}),
        "rows": rows,
    }


def write_bench(payload: Row, path) -> Path:
    """Serialize a sweep payload canonically (stable across runs)."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def sweep_main(spec: SweepSpec, argv: Optional[Sequence[str]] = None) -> int:
    """The sweep's subcommand: run, write ``--out``, print the table."""
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.experiments {spec.name}", description=spec.description
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="workload (and fault-script) seed"
    )
    for axis, default in spec.axes.items():
        parser.add_argument(
            f"--{axis}",
            nargs="+",
            default=list(default),
            help=f"{axis} to sweep (default: {' '.join(default)})",
        )
    parser.add_argument(
        "--out",
        default=f"BENCH_{spec.bench}.json",
        help="output path for the bench JSON",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-sized subset (CI): tiny points, same code path",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan-out processes (default: CPU count)",
    )
    args = parser.parse_args(argv)

    t0 = time.time()
    payload = run_sweep(
        spec,
        points=spec.smoke_points if args.smoke else spec.points,
        seed=args.seed,
        workers=args.workers,
        **{name: getattr(args, name) for name in spec.axes},
    )
    write_bench(payload, args.out)
    print(spec.render(payload))
    print(f"\nwrote {args.out}", file=sys.stderr)
    print(f"[done in {time.time() - t0:.1f}s]", file=sys.stderr)
    failure = spec.failure(payload) if spec.failure is not None else None
    if failure:
        print(failure, file=sys.stderr)
    return 1 if failure else 0


# --------------------------------------------------------------------- #
# what every sweep's cell spells the same way
# --------------------------------------------------------------------- #
def format_point_label(n_servers: int, n_filesets: int) -> str:
    """The canonical sweep-point label (``1000s/1000000fs``), shared by
    every renderer."""
    return f"{n_servers}s/{n_filesets}fs"


#: Cyclic heterogeneity: the paper's power pattern tiled across the
#: cluster, so every size keeps the same 9:1 spread.
_POWER_PATTERN = (1.0, 3.0, 5.0, 7.0, 9.0)


def scale_powers(n_servers: int) -> Dict[int, float]:
    """Server powers for a point (paper pattern, tiled)."""
    return {i: _POWER_PATTERN[i % len(_POWER_PATTERN)] for i in range(n_servers)}


def sweep_cluster_config(point) -> ClusterConfig:
    """The point's cluster: tiled powers, cache move costs off, no
    prescient knowledge — the sweeps measure placement and tuning."""
    return ClusterConfig(
        server_powers=scale_powers(point.n_servers),
        tuning_interval=point.tuning_interval,
        cache=CacheConfig(flush_work_scale=0.0, cold_factor=1.0, warmup_time=0.0),
        supply_knowledge=False,
    )


def point_workload(
    point, seed: int, axes: Optional[Mapping[str, Sequence[str]]] = None
) -> ArrayWorkload:
    """The point's columnar workload (a ``prepare`` as is: every axis
    value shares the one workload)."""
    return generate_scale(
        ScaleConfig(
            n_filesets=point.n_filesets,
            target_requests=point.n_requests,
            duration=point.duration,
            total_capacity=sum(scale_powers(point.n_servers).values()),
        ),
        seed=seed,
    )


def point_columns(point) -> Row:
    return {
        "n_servers": point.n_servers,
        "n_filesets": point.n_filesets,
        "duration_s": point.duration,
        "tuning_interval_s": point.tuning_interval,
    }


def latency_columns(result: ClusterResult) -> Row:
    """Mean / p99 latency and the paper's consistency metrics (CoV and
    Jain index over per-server mean latency)."""
    lat = result.all_latencies
    report = consistency_report(result, min_share=0.0)
    return {
        "mean_latency": float(lat.mean()) if lat.size else float("nan"),
        "p99_latency": float(np.percentile(lat, 99)) if lat.size else float("nan"),
        "latency_cov": report.cov,
        "jain_index": report.jain,
    }


def policy_columns(policy: LoadManager) -> Row:
    """Shed count and the relocation ledger.

    The vector policies count sheds themselves; the scalar ANU
    adapter's counter lives on its ``ANUManager``. The ledger exists
    only on :class:`RelocationStats` policies — others record null,
    not zero: they are uninstrumented, not relocation-free. The
    policies' own ``reshuffle_seconds`` is host time and stays out of
    the row (``bench/`` reports it as ``policies.reshuffle_s``).
    """
    sheds = getattr(policy, "total_sheds", None) or getattr(
        getattr(policy, "manager", None), "total_sheds", 0
    )
    if not isinstance(policy, RelocationStats):
        ledger = dict.fromkeys(("relocated", "relocate_fraction"))
    else:
        ledger = {
            "relocated": int(policy.relocated_total),
            "relocate_fraction": round(float(policy.relocate_fraction), 6),
        }
    return {"total_sheds": int(sheds), **ledger}
