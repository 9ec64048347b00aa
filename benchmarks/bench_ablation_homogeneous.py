"""Ablation A3: ANU beats simple randomization even with *no* heterogeneity.

"Mapped region scaling results in better load balance than simple
randomization even when all servers and all file sets are homogeneous."
(§4) — because hashing variance alone misplaces load, and ANU's
feedback corrects it while simple randomization cannot.

Five equal-power servers, equal-size file sets (work_sigma = 0,
X interval collapsed), same total load as the headline experiment.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.engine import ClusterConfig, ExperimentSpec
from repro.core import HashFamily
from repro.metrics import ascii_table
from repro.policies import ANURandomization, SimpleRandomization
from repro.workloads import SyntheticConfig, generate_synthetic

from .conftest import BENCH_SEED, run_once

EQUAL_POWERS = {i: 5.0 for i in range(5)}  # same total capacity (25)


def _run_pair(scale: float):
    cfg = SyntheticConfig(
        x_low=5.0,
        x_high=5.0,  # every file set the same size
        work_sigma=0.0,  # every request the same work
        duration=12_000.0 * scale,
        target_requests=max(50, int(66_401 * scale)),
    )
    workload = generate_synthetic(cfg, seed=BENCH_SEED)
    cluster_cfg = ClusterConfig(server_powers=dict(EQUAL_POWERS))
    out = {}
    for name, policy in (
        ("simple", SimpleRandomization(list(EQUAL_POWERS), hash_family=HashFamily(seed=0))),
        ("anu", ANURandomization(list(EQUAL_POWERS), hash_family=HashFamily(seed=0))),
    ):
        out[name] = ExperimentSpec(
            workload.fork(), policy, cluster_cfg
        ).build().run()
    return out


def test_homogeneous_cluster_hash_variance(benchmark, scale):
    results = run_once(benchmark, lambda: _run_pair(scale))

    rows = []
    for name, res in results.items():
        counts = np.array([res.server_requests[s] for s in EQUAL_POWERS], dtype=float)
        rows.append(
            {
                "system": name,
                "mean_latency": res.aggregate_mean_latency,
                "request_imbalance": counts.max() / max(counts.mean(), 1.0),
                "moves": res.total_moves,
            }
        )
    print("\nA3 — homogeneous cluster (pure hashing variance):")
    print(ascii_table(rows))

    # Hash variance must actually misplace load under simple
    # randomization (otherwise this ablation has no signal).
    simple_counts = np.array(
        [results["simple"].server_requests[s] for s in EQUAL_POWERS], dtype=float
    )
    assert simple_counts.max() > 1.05 * simple_counts.mean()

    # ANU corrects it: no worse latency, tighter request spread.
    anu = results["anu"]
    anu_counts = np.array([anu.server_requests[s] for s in EQUAL_POWERS], dtype=float)
    assert anu.aggregate_mean_latency <= results["simple"].aggregate_mean_latency * 1.5
    assert anu_counts.max() / anu_counts.mean() <= (
        simple_counts.max() / simple_counts.mean()
    ) + 0.05
