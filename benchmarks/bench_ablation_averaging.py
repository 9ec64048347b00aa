"""Ablation A1: the delegate's averaging rule (unspecified in [40]).

The paper's companion report defines an "average" latency the delegate
scales around, but not which average. We run the full synthetic
experiment under each implemented rule and show the headline results
are qualitatively insensitive to the choice — which is what licenses
our defaulting to the request-weighted mean.
"""

from __future__ import annotations

from repro.control import MultiplicativeController
from repro.experiments.config import paper_config
from repro.experiments.runner import run_system
from repro.metrics import ascii_table
from repro.workloads import generate_synthetic

from .conftest import BENCH_SEED, run_once

RULES = ("weighted", "arithmetic", "trimmed")


def _run_all(scale: float):
    config = paper_config(seed=BENCH_SEED, scale=scale)
    workload = generate_synthetic(config.synthetic_config(), seed=BENCH_SEED)
    out = {}
    for rule in RULES:
        out[rule] = run_system(
            "anu",
            workload.fork(),
            config,
            controller=MultiplicativeController(averaging=rule),
        )
    out["simple"] = run_system("simple", workload.fork(), config)
    return out


def test_averaging_rule_insensitivity(benchmark, scale):
    results = run_once(benchmark, lambda: _run_all(scale))
    rows = [
        {
            "averaging": name,
            "mean_latency": res.aggregate_mean_latency,
            "moves": res.total_moves,
            "completed": res.completed,
        }
        for name, res in results.items()
    ]
    print("\nA1 — averaging-rule ablation:")
    print(ascii_table(rows))

    simple = results["simple"].aggregate_mean_latency
    latencies = [results[r].aggregate_mean_latency for r in RULES]

    # Every rule converges: each beats static placement by a wide
    # margin and completes the workload.
    for rule in RULES:
        res = results[rule]
        assert res.aggregate_mean_latency < simple / 2, rule
        assert res.completed == res.submitted, rule

    # Qualitative insensitivity: all rules land within one order of
    # magnitude of each other.
    assert max(latencies) < 10 * min(latencies)
