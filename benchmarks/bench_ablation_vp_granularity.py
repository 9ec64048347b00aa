"""Ablation: where the coarse-VP penalty of Figure 8(a) bites.

At the headline calibration (ρ = 0.6) the cluster has enough slack that
even five indivisible VP lumps can be packed acceptably, so the
small-Nv penalty is mild. The paper's "with a small number of virtual
processors, the virtual processor system does not effectively balance
the synthetic workload, yielding bad performance" emerges sharply once
the system runs closer to capacity: at ρ = 0.7 the 5-VP lumps no longer
fit and latency multiplies, while fine-grained VP counts stay at the
floor. This bench regenerates that regime.
"""

from __future__ import annotations

from repro.engine import ClusterConfig, ExperimentSpec
from repro.core import HashFamily
from repro.experiments.config import PAPER_POWERS
from repro.metrics import ascii_table
from repro.policies import DynamicPrescient, VirtualProcessorSystem
from repro.workloads import SyntheticConfig, generate_synthetic

from .conftest import BENCH_SEED, run_once

TIGHT_UTILIZATION = 0.7


def _run_sweep(scale: float):
    cfg = SyntheticConfig(
        utilization=TIGHT_UTILIZATION,
        duration=12_000.0 * scale,
        target_requests=max(50, int(66_401 * scale)),
    )
    workload = generate_synthetic(cfg, seed=BENCH_SEED)
    cluster_cfg = ClusterConfig(server_powers=dict(PAPER_POWERS))
    out = {}
    for nv in (5, 15, 50):
        policy = VirtualProcessorSystem(
            list(PAPER_POWERS), n_virtual=nv, hash_family=HashFamily(seed=0)
        )
        out[f"vp{nv}"] = ExperimentSpec(
            workload.fork(), policy, cluster_cfg
        ).build().run()
    out["prescient"] = ExperimentSpec(
        workload.fork(), DynamicPrescient(list(PAPER_POWERS)), cluster_cfg
    ).build().run()
    return out


def test_vp_granularity_under_tight_utilization(benchmark, scale):
    results = run_once(benchmark, lambda: _run_sweep(scale))
    rows = [
        {
            "system": name,
            "mean_latency": res.aggregate_mean_latency,
            "state_entries": res.shared_state_entries,
        }
        for name, res in results.items()
    ]
    print("\nVP granularity at rho=0.7:")
    print(ascii_table(rows))

    floor = results["prescient"].aggregate_mean_latency
    coarse = results["vp5"].aggregate_mean_latency
    fine = results["vp50"].aggregate_mean_latency

    # The paper's Figure 8(a) shape: coarse VPs clearly bad, fine VPs
    # at the floor.
    assert coarse > 2.0 * floor, (
        f"coarse VPs should visibly underperform (got {coarse:.2f} vs floor {floor:.2f})"
    )
    assert fine <= floor * 1.6
    assert results["vp15"].aggregate_mean_latency < coarse
