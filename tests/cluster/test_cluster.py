"""The default-layer engine: tuning cadence, movement, churn, results."""

from __future__ import annotations

import pytest

from repro.cluster import CacheConfig
from repro.engine import ClusterConfig, ExperimentSpec
from repro.policies import ANURandomization, SimpleRandomization
from repro.workloads import SyntheticConfig, generate_synthetic

POWERS = {0: 1.0, 1: 3.0, 2: 5.0, 3: 7.0, 4: 9.0}


def small_wl(seed=3):
    return generate_synthetic(
        SyntheticConfig(
            n_filesets=15, duration=600.0, target_requests=1500, total_capacity=25.0
        ),
        seed=seed,
    )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"server_powers": {}},
            {"server_powers": {0: 0.0}},
            {"server_powers": {0: 1.0}, "tuning_interval": 0.0},
        ],
    )
    def test_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            ClusterConfig(**kwargs)


class TestRun:
    def test_nearly_all_requests_complete_under_anu(self):
        wl = small_wl()
        sim = ExperimentSpec(
            wl, ANURandomization(list(POWERS)), ClusterConfig(server_powers=POWERS)
        ).build()
        res = sim.run()
        assert res.submitted == len(wl)
        # A short run ends with some requests still queued (the horizon
        # cuts the tail); the bulk must have completed.
        assert res.completed >= 0.9 * res.submitted
        assert res.unfinished == res.submitted - res.completed

    def test_tuning_rounds_match_duration(self):
        wl = small_wl()
        cfg = ClusterConfig(server_powers=POWERS, tuning_interval=100.0)
        sim = ExperimentSpec(wl, ANURandomization(list(POWERS)), cfg).build()
        res = sim.run()
        tune_records = [m for m in res.movement if m.kind == "tune"]
        assert len(tune_records) == 6  # t = 100, 200, ..., 600
        # latency series sampled once per round per server
        for ts in res.server_latency.values():
            assert len(ts) == len(tune_records)

    def test_simple_never_moves(self):
        wl = small_wl()
        sim = ExperimentSpec(
            wl,
            SimpleRandomization(list(POWERS)),
            ClusterConfig(server_powers=POWERS),
        ).build()
        res = sim.run()
        assert res.total_moves == 0
        assert res.total_moved_work_share == 0.0

    def test_aggregate_stats_consistent(self):
        wl = small_wl()
        sim = ExperimentSpec(
            wl, ANURandomization(list(POWERS)), ClusterConfig(server_powers=POWERS)
        ).build()
        res = sim.run()
        assert res.all_latencies.size == res.completed
        assert res.aggregate_mean_latency > 0
        shares = [res.request_share(sid) for sid in POWERS]
        assert sum(shares) == pytest.approx(1.0)

    def test_deterministic_given_same_inputs(self):
        wl = small_wl()
        results = []
        for _ in range(2):
            sim = ExperimentSpec(
                wl.fork(),
                ANURandomization(list(POWERS)),
                ClusterConfig(server_powers=POWERS),
            ).build()
            res = sim.run()
            results.append(
                (res.aggregate_mean_latency, res.total_moves, res.completed)
            )
        assert results[0] == results[1]

    def test_movement_charges_flush_to_source(self):
        wl = small_wl()
        cfg = ClusterConfig(
            server_powers=POWERS,
            cache=CacheConfig(flush_work_scale=4.0, cold_factor=1.5, warmup_time=30.0),
        )
        sim = ExperimentSpec(wl, ANURandomization(list(POWERS)), cfg).build()
        res = sim.run()
        if res.total_moves:
            assert sim.cache.total_flush_work > 0
            assert sim.cache.sheds_seen == res.total_moves


class TestChurn:
    def test_failure_reroutes_requests(self):
        wl = small_wl()
        sim = ExperimentSpec(
            wl, ANURandomization(list(POWERS)), ClusterConfig(server_powers=POWERS)
        ).build()
        # Fail a mid-size server: the survivors (capacity 20 vs offered
        # ~15) can absorb its load without saturating.
        sim.schedule_failure(150.0, 2)
        res = sim.run()
        fail_records = [m for m in res.movement if m.kind == "fail"]
        assert len(fail_records) == 1
        assert fail_records[0].moves > 0
        # after the failure, requests still flow to the survivors
        assert res.completed >= 0.85 * res.submitted

    def test_failure_then_recovery(self):
        wl = small_wl()
        sim = ExperimentSpec(
            wl, ANURandomization(list(POWERS)), ClusterConfig(server_powers=POWERS)
        ).build()
        sim.schedule_failure(150.0, 2)
        sim.schedule_recovery(350.0, 2)
        res = sim.run()
        kinds = [m.kind for m in res.movement if m.kind != "tune"]
        assert kinds == ["fail", "recover"]
        recover = [m for m in res.movement if m.kind == "recover"][0]
        assert recover.moves > 0  # the recovered server re-acquires load

    def test_failed_server_excluded_from_routing(self):
        wl = small_wl()
        policy = ANURandomization(list(POWERS))
        sim = ExperimentSpec(wl, policy, ClusterConfig(server_powers=POWERS)).build()
        sim.schedule_failure(100.0, 0)
        res = sim.run()
        # no post-failure completions on server 0: its tally froze
        t0 = res.server_latency[0]
        times = t0.times()
        # every recorded non-idle window for server 0 ended by ~failure time
        assert res.server_requests[0] == res.server_tally[0].count
