"""Policy factory and experiment execution.

:func:`make_policy` maps the paper's system names to configured
:class:`LoadManager` instances; :func:`run_system` executes one
system × workload combination; :func:`run_comparison` runs the full
four-system sweep used by Figures 4–6 and :func:`run_vp_sweep` the
Figure 8 VP sweep — sequentially by default, fanned out over forked
workers on request.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.hashing import HashFamily
from ..engine import ExperimentSpec
from ..engine.record import ClusterResult
from ..policies import (
    ANURandomization,
    DynamicPrescient,
    LoadManager,
    SimpleRandomization,
    VirtualProcessorSystem,
)
from ..workloads.synthetic import Workload
from .config import ExperimentConfig
from .fanout import shared_payload, stream_map

__all__ = ["make_policy", "run_system", "run_comparison", "run_vp_sweep"]


def make_policy(
    system: str,
    config: ExperimentConfig,
    n_virtual: Optional[int] = None,
    controller: Optional[object] = None,
) -> LoadManager:
    """Instantiate one of the paper's systems by name.

    ``system`` ∈ {"simple", "anu", "prescient", "virtual"}.
    ``n_virtual`` overrides the VP count (Figure 8 sweep); the default
    is the paper's ``v = 5`` → ``5 N`` VPs. ``controller`` plugs a
    :class:`repro.control.Controller` into the ANU system.
    """
    server_ids = list(config.powers)
    # The hash family is fixed infrastructure (every node derives the
    # same family from one agreed constant); it does not vary with the
    # workload seed. Sensitivity to the family choice is reported in
    # EXPERIMENTS.md's A11 row.
    family = HashFamily(seed=0)
    if system == "simple":
        return SimpleRandomization(server_ids, hash_family=family)
    if system == "anu":
        return ANURandomization(
            server_ids,
            hash_family=family,
            controller=controller,
        )
    if system == "prescient":
        return DynamicPrescient(server_ids, tuning_interval=config.tuning_interval)
    if system == "virtual":
        return VirtualProcessorSystem(
            server_ids,
            n_virtual=n_virtual,
            v=5.0,
            hash_family=family,
            tuning_interval=config.tuning_interval,
        )
    raise ValueError(f"unknown system {system!r}; expected simple/anu/prescient/virtual")


def run_system(
    system: str,
    workload: Workload,
    config: ExperimentConfig,
    n_virtual: Optional[int] = None,
    controller: Optional[object] = None,
) -> ClusterResult:
    """Run one system against one workload; returns the full result."""
    policy = make_policy(
        system,
        config,
        n_virtual=n_virtual,
        controller=controller,
    )
    return ExperimentSpec(workload, policy, config.cluster_config()).build().run()


def _system_job(job: Tuple[str, Optional[int]]) -> ClusterResult:
    # The workload rides the fork, not the job tuple; runs only read it.
    system, n_virtual = job
    workload, config = shared_payload()
    return run_system(system, workload, config, n_virtual=n_virtual)


def _run_jobs(
    jobs: Sequence[Tuple[str, Optional[int]]],
    workload: Workload,
    config: ExperimentConfig,
    max_workers: Optional[int],
) -> List[ClusterResult]:
    """Run ``(system, n_virtual)`` jobs over one workload, in job order.

    The jobs fan out through :func:`stream_map` (in-process at one
    worker). Each run is a pure function of its inputs and the merge
    follows ``jobs``, never completion order, so the worker count
    changes wall-clock only.
    """
    return stream_map(
        _system_job,
        jobs,
        payload=(workload, config),
        max_workers=max_workers,
        chunk_size=1,
    )


def run_comparison(
    workload: Workload,
    config: ExperimentConfig,
    systems: Iterable[str] = ("simple", "anu", "prescient", "virtual"),
    max_workers: Optional[int] = 1,
) -> Dict[str, ClusterResult]:
    """Run the four-system comparison of Figures 4/5/6.

    Each system gets a fresh simulation over the *same* workload.
    Returns ``{system: result}`` in the order of ``systems``;
    ``max_workers > 1`` (``None``: the CPU count) fans the systems out
    over forked workers with results byte-identical to the sequential
    default.
    """
    systems = tuple(systems)
    jobs = [(system, None) for system in systems]
    return dict(zip(systems, _run_jobs(jobs, workload, config, max_workers)))


def run_vp_sweep(
    workload: Workload,
    config: ExperimentConfig,
    sweep: Sequence[int],
    max_workers: Optional[int] = 1,
) -> Dict[int, ClusterResult]:
    """The Figure 8 virtual-processor sweep, one run per VP count.

    Returns ``{n_virtual: result}`` in the order of ``sweep``.
    """
    sweep = [int(nv) for nv in sweep]
    jobs = [("virtual", nv) for nv in sweep]
    return dict(zip(sweep, _run_jobs(jobs, workload, config, max_workers)))
