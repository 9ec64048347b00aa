"""Epoch-stamped lookup memoization in ANUManager.

A stale fileset→server memo is the nastiest bug class this cache can
produce: lookups keep returning a server that no longer owns the
offset (or no longer exists). These tests force exactly that situation
and require the memo to lose.
"""

from __future__ import annotations

import pytest

from repro.core.anu import ANUManager
from repro.core.hashing import HashFamily
from repro.core.tuning import LatencyReport

NAMES = [f"/fs/{i:04d}" for i in range(200)]


def make_manager() -> ANUManager:
    mgr = ANUManager(server_ids=[0, 1, 2, 3])
    mgr.register_filesets(NAMES)
    return mgr


def reports(latencies) -> list:
    return [
        LatencyReport(server_id=sid, mean_latency=lat, request_count=50)
        for sid, lat in latencies.items()
    ]


class TestLookupMemo:
    def test_memo_hit_returns_identical_answer(self):
        mgr = make_manager()
        cold = {n: mgr.lookup(n) for n in NAMES}
        warm = {n: mgr.lookup(n) for n in NAMES}
        assert cold == warm

    def test_counters_advance_on_hits(self):
        mgr = make_manager()
        before_l, before_p = mgr.total_lookups, mgr.total_probes
        _, probes = mgr.lookup(NAMES[0])  # memo hit (warmed by registration)
        # A hit must charge exactly the memoized probe count, so
        # mean_probes matches what the uncached path would report.
        assert mgr.total_lookups == before_l + 1
        assert mgr.total_probes == before_p + probes
        assert probes >= 1

    def test_epoch_bumps_on_every_reconfiguration(self):
        mgr = make_manager()
        assert mgr.cache_epoch == 0
        mgr.tune(reports({0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0}))
        assert mgr.cache_epoch == 1
        mgr.fail_server(3)
        assert mgr.cache_epoch == 2
        mgr.add_server(3)
        assert mgr.cache_epoch == 3

    def test_stale_memo_would_fail_loudly_after_tune(self):
        """Warm-memo manager must agree with a never-warmed twin."""
        warm = make_manager()
        for n in NAMES:  # warm the memo thoroughly
            warm.lookup(n)
        cold = make_manager()

        skew = {0: 9.0, 1: 1.0, 2: 1.0, 3: 1.0}
        warm.tune(reports(skew))
        cold.tune(reports(skew))
        # If the memo survived the layout change, `warm` would answer
        # from the pre-tune regions and diverge from `cold` here.
        for n in NAMES:
            assert warm.lookup(n) == cold.lookup(n)

    def test_failed_server_never_returned(self):
        mgr = make_manager()
        for n in NAMES:
            mgr.lookup(n)
        mgr.fail_server(2)
        for n in NAMES:
            owner, _ = mgr.lookup(n)
            assert owner != 2, f"stale memo returned dead server for {n}"

    def test_memo_rewarmed_consistent_with_assignments(self):
        mgr = make_manager()
        mgr.tune(reports({0: 5.0, 1: 1.0, 2: 1.0, 3: 1.0}))
        for n in NAMES:
            assert mgr.lookup(n)[0] == mgr.assignment_of(n)


class TestMemoUnderChurn:
    """The memo crossed with fail_server/add_server mid-stream."""

    def test_fail_recover_cycle_agrees_with_cold_manager(self):
        warm = make_manager()
        for n in NAMES:
            warm.lookup(n)
        cold = make_manager()
        warm.fail_server(2)
        cold.fail_server(2)
        for n in NAMES:
            assert warm.lookup(n) == cold.lookup(n)
        warm.add_server(2)
        cold.add_server(2)
        for n in NAMES:
            assert warm.lookup(n) == cold.lookup(n)

    def test_interleaved_lookups_never_serve_pre_failure_epoch(self):
        """Lookups interleaved with churn must track each epoch exactly."""
        mgr = make_manager()
        down = False
        for i, n in enumerate(NAMES):
            if i == 50:
                mgr.fail_server(1)
                down = True
            if i == 120:
                mgr.add_server(1)
                down = False
            owner, _ = mgr.lookup(n)
            if down:
                assert owner != 1, f"memo served pre-failure epoch for {n}"
            assert owner == mgr.assignment_of(n)

    def test_repeated_cycles_keep_epoch_and_memo_in_step(self):
        mgr = make_manager()
        for cycle in range(3):
            mgr.fail_server(3)
            assert all(mgr.lookup(n)[0] != 3 for n in NAMES)
            mgr.add_server(3)
            for n in NAMES:
                assert mgr.lookup(n)[0] == mgr.assignment_of(n)
        assert mgr.cache_epoch == 6

    def test_requests_in_flight_during_churn(self, small_workload, cluster_config):
        """Simulation-level: mid-run fail/recover with live traffic never
        routes an arrival to the dead server (a stale memo would)."""
        from repro.engine import ExperimentSpec
        from repro.policies import ANURandomization

        policy = ANURandomization(
            list(cluster_config.server_powers), hash_family=HashFamily(seed=0)
        )
        sim = ExperimentSpec(
            small_workload.fork(), policy, cluster_config
        ).build()
        # The run stamps the requests it replays, not the workload's:
        # every served request is recorded as it completes.
        served = []
        for srv in sim.servers.values():
            srv.probe = served.append
        sim.schedule_failure(300.0, 2)
        sim.schedule_recovery(600.0, 2)
        sim.run()
        assert policy.manager.cache_epoch >= 2
        served_during_outage = [
            r for r in served if r.server == 2 and 300.0 <= r.arrival < 600.0
        ]
        assert served_during_outage == []
        assert sim.driver.dropped == 0
        # The outage window saw traffic, and server 2 served both before
        # and after it — the assertion above is not vacuous.
        assert any(300.0 <= r.arrival < 600.0 for r in served)
        assert any(r.server == 2 for r in served if r.arrival < 300.0)
        assert any(r.server == 2 for r in served if r.arrival >= 600.0)
        for n in policy.manager.assignments:
            assert policy.manager.lookup(n)[0] == policy.manager.assignment_of(n)


class TestHashFamilyProbeCache:
    def test_cached_offsets_equal_fresh_family(self):
        a, b = HashFamily(seed=7), HashFamily(seed=7)
        # Consume probes in different orders and depths.
        for name in ("alpha", "beta", "gamma"):
            list(a.probe_sequence(name))
        for r in (3, 0, 5):
            assert a.offset("alpha", r) == b.offset("alpha", r)
        for x, y in zip(a.probe_sequence("beta"), b.probe_sequence("beta")):
            assert x == y

    def test_out_of_order_round_access(self):
        fam = HashFamily(seed=1)
        late = fam.offset("name", 10)
        early = fam.offset("name", 2)
        fresh = HashFamily(seed=1)
        assert late == fresh.offset("name", 10)
        assert early == fresh.offset("name", 2)

    def test_round_budget_still_enforced(self):
        fam = HashFamily(seed=1, max_probes=4)
        with pytest.raises(Exception):
            fam.offset("name", 4)

    def test_pickle_drops_cache_but_preserves_identity(self):
        import pickle

        fam = HashFamily(seed=3)
        list(fam.probe_sequence("warm"))
        clone = pickle.loads(pickle.dumps(fam))
        assert clone == fam
        assert clone._probe_cache == {}
        assert clone.offset("warm", 0) == fam.offset("warm", 0)
