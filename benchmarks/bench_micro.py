"""Ablation A7: substrate microbenchmarks.

These are true pytest-benchmark microbenches (multiple rounds): the
calendar throughput that bounds experiment wall-time, the lookup
path cost (hash + probe chain), and the tuning-round cost at cluster
scale. No paper figure depends on absolute speed, but a reproduction
whose simulator is too slow to run the paper's experiments would be
useless — these keep it honest.
"""

from __future__ import annotations

import math

from repro.core import ANUManager, HashFamily, LatencyReport
from repro.sim import Simulator


def test_kernel_event_throughput(benchmark):
    """Schedule-and-run cost of 10k calendar callbacks."""

    def noop() -> None:
        pass

    def run():
        env = Simulator()
        for i in range(10_000):
            env.schedule_at(float(i % 100), noop)
        env.run()
        return env.events_processed

    assert benchmark(run) == 10_000


def test_hash_lookup_cost(benchmark):
    """Full ANU lookup (hash + probe chain) for 1k names."""
    mgr = ANUManager(server_ids=list(range(16)), hash_family=HashFamily(seed=0))
    names = [f"/namespace/dir{i}/subtree" for i in range(1_000)]

    def run():
        return sum(mgr.lookup(n)[1] for n in names)

    probes = benchmark(run)
    # expected-two-probes sanity, measured on the hot path itself
    assert 1.5 * len(names) < probes < 3.0 * len(names)


def test_tuning_round_cost(benchmark):
    """One full delegate round on a 64-server, 2000-file-set cluster."""
    mgr = ANUManager(server_ids=list(range(64)), hash_family=HashFamily(seed=0))
    mgr.register_filesets([f"/fs{i}" for i in range(2_000)])
    lat = {sid: 1.0 + (sid % 7) * 0.3 for sid in range(64)}

    def reports():
        return [
            LatencyReport(sid, lat[sid], request_count=100, prev_mean_latency=lat[sid])
            for sid in range(64)
        ]

    def run():
        return mgr.tune(reports()).round_index

    benchmark(run)
    mgr.layout.check_invariants()
