"""The planet-scale sweep: ANU vs modern policies on the vectorized path.

The paper stops at 5 servers and 50 file sets. This sweep runs the same
question — does latency-feedback tuning beat static and
randomized-choice placement on heterogeneous servers? — from paper
scale up to ≥1000 servers and ≥1M file sets, entirely on the
vectorized client path, against the two modern baselines the
at-scale literature centers on:

* ``anu``  — :class:`~repro.policies.vector.VectorANU` (this paper);
* ``chbl`` — :class:`~repro.policies.bounded.BoundedLoadConsistentHashing`
  (Mirrokni et al.);
* ``jsq2`` — :class:`~repro.policies.jsq.JSQd` with d=2
  (Mukhopadhyay et al.).

Per (point, policy) the sweep records policy quality: mean / p99
latency, the paper's consistency metrics (coefficient of variation and
Jain index over per-server mean latency), shed counts, and the
relocation ledger (``relocated``, ``relocate_fraction`` — what the
incremental epoch-delta path shrinks). A row is a pure function of
(point, policy, seed); host time is measured by ``bench/`` alone.

The cells run through :func:`repro.experiments.sweep.run_sweep`.

``python -m repro.experiments scale`` writes ``BENCH_scale.json``; the
``--smoke`` variant runs a seconds-sized subset for CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.hashing import HashFamily
from ..engine import ExperimentSpec, VectorizedClientPath
from ..policies import BoundedLoadConsistentHashing, JSQd, VectorANU
from ..policies.base import LoadManager
from ..workloads.scale import ArrayWorkload
from .sweep import (
    SweepSpec,
    format_point_label,
    latency_columns,
    point_columns,
    point_workload,
    policy_columns,
    scale_powers,
    sweep_cluster_config,
)

__all__ = [
    "SWEEP",
    "SCALE_POLICIES",
    "DEFAULT_POINTS",
    "SMOKE_POINTS",
    "ScalePoint",
    "format_point_label",
    "scale_powers",
    "make_scale_policy",
    "run_scale_point",
    "render_scale",
]

SCALE_POLICIES: Tuple[str, ...] = ("anu", "chbl", "jsq2")

@dataclass(frozen=True)
class ScalePoint:
    """One cluster size / workload size in the sweep."""

    n_servers: int
    n_filesets: int
    n_requests: int
    duration: float = 1_200.0
    tuning_interval: float = 120.0


#: Paper scale → two orders of magnitude up → the planet-scale point
#: the acceptance bar measures (≥1000 servers, ≥1M file sets).
DEFAULT_POINTS: Tuple[ScalePoint, ...] = (
    ScalePoint(n_servers=5, n_filesets=50, n_requests=66_401, duration=12_000.0),
    ScalePoint(n_servers=100, n_filesets=10_000, n_requests=2_000_000),
    ScalePoint(n_servers=1_000, n_filesets=1_000_000, n_requests=20_000_000),
)

#: CI-sized: seconds, not minutes, same code path end to end.
SMOKE_POINTS: Tuple[ScalePoint, ...] = (
    ScalePoint(n_servers=5, n_filesets=50, n_requests=6_000),
    ScalePoint(n_servers=20, n_filesets=500, n_requests=30_000),
)


def make_scale_policy(
    name: str, server_ids: List[object], emit_moves: bool = False
) -> LoadManager:
    """Instantiate a sweep policy over a shared hash family."""
    family = HashFamily(seed=0)
    if name == "anu":
        return VectorANU(server_ids, hash_family=family, emit_moves=emit_moves)
    if name == "chbl":
        return BoundedLoadConsistentHashing(server_ids, hash_family=family)
    if name.startswith("jsq"):
        d = int(name[3:]) if name[3:] else 2
        return JSQd(server_ids, hash_family=family, d=d, emit_moves=emit_moves)
    raise ValueError(f"unknown scale policy {name!r}; know {SCALE_POLICIES}")


def run_scale_point(
    point: ScalePoint,
    policy_name: str,
    seed: int = 1,
    shared: Optional[ArrayWorkload] = None,
) -> Dict[str, object]:
    """One vectorized run; returns a BENCH_scale row.

    ``shared`` carries the sweep's per-point workload; a lone call
    generates its own.
    """
    workload = shared if shared is not None else point_workload(point, seed)
    config = sweep_cluster_config(point)
    policy = make_scale_policy(policy_name, list(config.server_powers))
    result = ExperimentSpec(
        workload=workload,
        policy=policy,
        config=config,
        client_path=VectorizedClientPath(),
    ).build().run()
    return {
        "policy": result.policy_name,
        **point_columns(point),
        "n_requests": int(result.submitted),
        "completed": int(result.completed),
        **latency_columns(result),
        **policy_columns(policy),
    }


def render_scale(payload: Dict[str, object]) -> str:
    """ASCII table of a sweep payload (the CLI's printed output)."""
    lines = [
        f"scale sweep: seed={payload['seed']}",
        f"{'point':>14} {'policy':>6} {'mean lat':>9} {'p99 lat':>9} {'cov':>7} "
        f"{'jain':>6} {'sheds':>8} {'reloc%':>7}",
    ]
    for row in payload["rows"]:
        point = format_point_label(row["n_servers"], row["n_filesets"])
        lines.append(
            f"{point:>14} {row['policy']:>6} {row['mean_latency']:>9.4f} "
            f"{row['p99_latency']:>9.4f} {row['latency_cov']:>7.4f} "
            f"{row['jain_index']:>6.4f} {row['total_sheds']:>8} "
            f"{100.0 * row['relocate_fraction']:>6.1f}%"
        )
    return "\n".join(lines)


SWEEP = SweepSpec(
    name="scale",
    schema_version=4,
    description="Planet-scale vectorized sweep: ANU vs bounded-load "
    "consistent hashing vs JSQ(d), up to 1000 servers / 1M file sets.",
    points=DEFAULT_POINTS,
    smoke_points=SMOKE_POINTS,
    axes={"policies": SCALE_POLICIES},
    prepare=point_workload,
    cell=run_scale_point,
    render=render_scale,
)
