"""Ablation A4: failure, recovery, commissioning — locality preserved.

"ANU randomization performs well when servers fail or recover, or when
servers are installed or removed, maintaining good load balance and
preserving load locality." (§4)

One run with scheduled churn measures exactly what each event moved;
the assertions pin the §4 mechanics: failures re-hash only the victim's
file sets, recoveries find their guaranteed free partition, and the
cluster keeps serving throughout.
"""

from __future__ import annotations

from repro.engine import ClusterConfig, ExperimentSpec
from repro.core import HashFamily
from repro.experiments.config import PAPER_POWERS
from repro.metrics import ascii_table
from repro.policies import ANURandomization
from repro.workloads import SyntheticConfig, generate_synthetic

from .conftest import BENCH_SEED, run_once


def _run_churn(scale: float):
    duration = 12_000.0 * scale
    cfg = SyntheticConfig(
        duration=duration, target_requests=max(50, int(66_401 * scale))
    )
    workload = generate_synthetic(cfg, seed=BENCH_SEED)
    policy = ANURandomization(list(PAPER_POWERS), hash_family=HashFamily(seed=0))
    sim = ExperimentSpec(
        workload, policy, ClusterConfig(server_powers=dict(PAPER_POWERS))
    ).build()
    # fail a mid server at 25% of the run, recover it at 60%
    sim.schedule_failure(duration * 0.25, 2)
    sim.schedule_recovery(duration * 0.60, 2)
    result = sim.run()
    return result, policy


def test_churn_locality(benchmark, scale):
    result, policy = run_once(benchmark, lambda: _run_churn(scale))

    events = [m for m in result.movement if m.kind != "tune"]
    rows = [
        {
            "kind": m.kind,
            "t_min": m.time / 60.0,
            "moves": m.moves,
            "moved_work_%": m.moved_work_share * 100.0,
        }
        for m in events
    ]
    print("\nA4 — churn events:")
    print(ascii_table(rows))

    assert [m.kind for m in events] == ["fail", "recover"]
    fail, recover = events

    n_filesets = 50
    # A failure re-hashes the victim's file sets (~1/5 of the namespace
    # at convergence, since server 2 holds ~20% of capacity) plus the
    # ripple of survivors re-scaling; locality bounds it well below a
    # global reshuffle.
    assert 0 < fail.moves < n_filesets * 0.6
    assert 0 < recover.moves < n_filesets * 0.6

    # service continuity
    assert result.completed >= 0.97 * result.submitted

    # the recovered server actually works again afterwards
    assert result.server_requests[2] > 0
    policy.manager.layout.check_invariants()
