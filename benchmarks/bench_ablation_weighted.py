"""Ablation: static capacity-weighted hashing vs ANU.

The related-work schemes that "require ... knowledge of the capacity of
any given server" (§2) are represented by weighted rendezvous hashing:
static, O(k) state, but needs the true powers. The comparison isolates
what ANU's *feedback* buys beyond weights:

* weighted hashing fixes the gross heterogeneity mismatch (no power-1
  meltdown), but its expected-share placement still leaves hash and
  workload-size variance uncorrected;
* ANU reaches capability-proportional load *without* the capacity
  knowledge, and its steady state matches or beats the weighted
  baseline because it balances measured latency, not expected share.
"""

from __future__ import annotations

import numpy as np

from repro.engine import ClusterConfig, ExperimentSpec
from repro.core import HashFamily
from repro.experiments.config import PAPER_POWERS, paper_config
from repro.experiments.runner import run_system
from repro.metrics import ascii_table, steady_state_means
from repro.policies import WeightedHashing
from repro.workloads import generate_synthetic

from .conftest import BENCH_SEED, run_once


def _run_all(scale: float):
    config = paper_config(seed=BENCH_SEED, scale=scale)
    workload = generate_synthetic(config.synthetic_config(), seed=BENCH_SEED)
    out = {
        system: run_system(system, workload.fork(), config)
        for system in ("simple", "anu")
    }
    weighted = WeightedHashing(dict(PAPER_POWERS), hash_family=HashFamily(seed=0))
    out["weighted"] = ExperimentSpec(
        workload.fork(), weighted, config.cluster_config()
    ).build().run()
    return out


def test_weighted_static_baseline(benchmark, scale):
    results = run_once(benchmark, lambda: _run_all(scale))
    rows = [
        {
            "system": name,
            "mean_latency": res.aggregate_mean_latency,
            "unfinished": res.unfinished,
            "moves": res.total_moves,
            "state_entries": res.shared_state_entries,
        }
        for name, res in results.items()
    ]
    print("\nweighted-hashing ablation:")
    print(ascii_table(rows))

    simple = results["simple"]
    weighted = results["weighted"]
    anu = results["anu"]

    # Capacity knowledge fixes the meltdown ...
    assert weighted.aggregate_mean_latency < simple.aggregate_mean_latency / 3
    assert weighted.unfinished < simple.unfinished

    # ... with O(k) state and zero movement (it is static) ...
    assert weighted.shared_state_entries == len(PAPER_POWERS)
    assert weighted.total_moves == 0

    # ... and ANU reaches the same operating regime with NO capacity
    # knowledge: its steady-state busy-server latency is within a small
    # factor of the weighted baseline's.
    anu_ss = steady_state_means(anu)
    w_ss = steady_state_means(weighted)
    anu_busy = np.nanmean([v for s, v in anu_ss.items() if s != 0])
    w_busy = np.nanmean([v for s, v in w_ss.items() if s != 0])
    assert anu_busy <= w_busy * 4.0, (anu_busy, w_busy)
