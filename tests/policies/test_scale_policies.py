"""The scaling-benchmark baseline policies: CHBL and JSQ(d)."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster.fileset import FileSetCatalog
from repro.core.errors import ConfigurationError
from repro.core.hashing import HashFamily
from repro.core.tuning import LatencyReport
from repro.policies import BoundedLoadConsistentHashing, JSQd

SIDS = [f"s{i}" for i in range(8)]


def _catalog(n):
    return FileSetCatalog([f"/fs/{i}" for i in range(n)], [1.0] * n, [10] * n)


def _report(sid, mean):
    return LatencyReport(
        server_id=sid,
        mean_latency=mean,
        request_count=10,
        window=(0.0, 120.0),
        idle_rounds=0,
        prev_mean_latency=math.nan,
    )


class TestBoundedLoadConsistentHashing:
    def test_capacity_bound_enforced(self):
        policy = BoundedLoadConsistentHashing(
            SIDS, hash_family=HashFamily(seed=0), capacity_factor=1.25
        )
        catalog = _catalog(400)
        policy.initial_placement(catalog, None)
        cap = math.ceil(1.25 * 400 / len(SIDS))
        counts = np.bincount(policy._assign, minlength=len(SIDS))
        assert counts.sum() == 400
        assert counts.max() <= cap, f"load {counts.max()} exceeds bound {cap}"

    def test_every_fileset_placed(self):
        policy = BoundedLoadConsistentHashing(SIDS, hash_family=HashFamily(seed=3))
        policy.initial_placement(_catalog(100), None)
        assert (policy._assign >= 0).all()
        for name in ("/fs/0", "/fs/99"):
            assert policy.locate(name) in SIDS

    def test_deterministic_in_name_set(self):
        a = BoundedLoadConsistentHashing(SIDS, hash_family=HashFamily(seed=0))
        b = BoundedLoadConsistentHashing(SIDS, hash_family=HashFamily(seed=0))
        a.initial_placement(_catalog(300), None)
        b.initial_placement(_catalog(300), None)
        np.testing.assert_array_equal(a._assign, b._assign)

    def test_static_under_rebalance(self):
        policy = BoundedLoadConsistentHashing(SIDS, hash_family=HashFamily(seed=0))
        policy.initial_placement(_catalog(50), None)
        before = policy._assign.copy()
        ctx = SimpleNamespace(reports=[_report(sid, 1.0) for sid in SIDS])
        assert policy.rebalance(ctx) == []
        np.testing.assert_array_equal(policy._assign, before)

    def test_capacity_factor_validated(self):
        with pytest.raises(ConfigurationError, match="capacity_factor"):
            BoundedLoadConsistentHashing(SIDS, capacity_factor=1.0)

    def test_assignment_vector_translates_slots(self):
        policy = BoundedLoadConsistentHashing(SIDS, hash_family=HashFamily(seed=0))
        policy.initial_placement(_catalog(40), None)
        slots = {sid: i for i, sid in enumerate(SIDS)}
        vec = policy.assignment_vector(slots)
        for i, name in enumerate(f"/fs/{j}" for j in range(40)):
            assert SIDS[vec[i]] == policy.locate(name)


class TestJSQd:
    def test_candidates_come_from_hash_rounds(self):
        fam = HashFamily(seed=5)
        policy = JSQd(SIDS, hash_family=fam, d=3)
        policy.initial_placement(_catalog(64), None)
        k = len(SIDS)
        for j in range(3):
            offsets = fam.batch_offsets([f"/fs/{i}" for i in range(64)], j)
            want = np.minimum((offsets * k).astype(np.int64), k - 1)
            np.testing.assert_array_equal(policy._candidates[:, j], want)

    def test_rebalance_picks_lowest_latency_candidate(self):
        policy = JSQd(SIDS, hash_family=HashFamily(seed=1), d=2, emit_moves=True)
        policy.initial_placement(_catalog(200), None)
        # Make slot 0 terrible and everything else idle: nothing should
        # remain on a candidate pair's worse choice.
        reports = [_report(SIDS[0], 99.0)] + [_report(s, 0.0) for s in SIDS[1:]]
        moves = policy.rebalance(SimpleNamespace(reports=reports))
        est = np.zeros(len(SIDS))
        est[0] = 99.0
        cand = policy._candidates
        want = cand[np.arange(cand.shape[0]), np.argmin(est[cand], axis=1)]
        np.testing.assert_array_equal(policy._assign, want)
        assert policy.total_sheds == len(moves) > 0

    def test_idle_servers_count_as_shortest(self):
        policy = JSQd(SIDS, hash_family=HashFamily(seed=1), d=2)
        policy.initial_placement(_catalog(50), None)
        # nan reports (idle) estimate 0; a busy server loses to idle.
        reports = [_report(SIDS[i], math.nan) for i in range(len(SIDS))]
        reports[0] = _report(SIDS[0], 5.0)
        policy.rebalance(SimpleNamespace(reports=reports))
        on_zero = policy._assign == 0
        both_zero = (policy._candidates == 0).all(axis=1)
        np.testing.assert_array_equal(on_zero, both_zero)

    def test_d_validated_against_probe_budget(self):
        with pytest.raises(ConfigurationError, match="d="):
            JSQd(SIDS, hash_family=HashFamily(seed=0, max_probes=2), d=3)
        with pytest.raises(ConfigurationError, match="d must be"):
            JSQd(SIDS, d=0)

    def test_name_includes_d(self):
        assert JSQd(SIDS, d=2).name == "jsq2"
        assert JSQd(SIDS, d=4).name == "jsq4"


class TestBoundedLoadChurn:
    def test_failed_server_sheds_everything_to_live_servers(self):
        policy = BoundedLoadConsistentHashing(SIDS, hash_family=HashFamily(seed=0))
        policy.initial_placement(_catalog(200), None)
        on_dead = int((policy._assign == 2).sum())
        assert on_dead > 0
        policy.server_failed(SIDS[2])
        assert not (policy._assign == 2).any()
        assert (policy._assign >= 0).all()
        assert policy.total_sheds == on_dead
        # Loads stay a faithful histogram of the assignment.
        np.testing.assert_array_equal(
            policy.load, np.bincount(policy._assign, minlength=len(SIDS))
        )

    def test_capacity_rescales_to_survivors(self):
        policy = BoundedLoadConsistentHashing(
            SIDS, hash_family=HashFamily(seed=0), capacity_factor=1.25
        )
        policy.initial_placement(_catalog(400), None)
        policy.server_failed(SIDS[0])
        cap = math.ceil(1.25 * 400 / (len(SIDS) - 1))
        assert policy.capacity == cap
        counts = np.bincount(policy._assign, minlength=len(SIDS))
        assert counts.max() <= cap

    def test_recovery_returns_exactly_the_displaced_items(self):
        policy = BoundedLoadConsistentHashing(SIDS, hash_family=HashFamily(seed=1))
        policy.initial_placement(_catalog(200), None)
        home = np.flatnonzero(policy._assign == 3)
        others = policy._assign[policy._assign != 3].copy()
        policy.server_failed(SIDS[3])
        policy.server_added(SIDS[3])
        assert (policy._assign[home] == 3).all()
        np.testing.assert_array_equal(policy._assign[policy._assign != 3], others)
        assert (policy._displaced_from == -1).all()
        np.testing.assert_array_equal(
            policy.load, np.bincount(policy._assign, minlength=len(SIDS))
        )

    def test_first_home_wins_across_cascading_failures(self):
        policy = BoundedLoadConsistentHashing(SIDS, hash_family=HashFamily(seed=2))
        policy.initial_placement(_catalog(300), None)
        home = np.flatnonzero(policy._assign == 0)
        policy.server_failed(SIDS[0])
        # Some refugees may now sit on s1; killing it displaces them
        # again, but their recorded home stays s0.
        policy.server_failed(SIDS[1])
        policy.server_added(SIDS[0])
        assert (policy._assign[home] == 0).all()

    def test_churn_guards(self):
        policy = BoundedLoadConsistentHashing(SIDS, hash_family=HashFamily(seed=0))
        policy.initial_placement(_catalog(50), None)
        assert policy.server_failed("nope") == []
        policy.server_failed(SIDS[0])
        assert policy.server_failed(SIDS[0]) == []  # already dead
        assert policy.server_added(SIDS[1]) == []  # already alive


class TestJSQdChurn:
    def test_failed_server_items_repicked_among_live(self):
        policy = JSQd(SIDS, hash_family=HashFamily(seed=1), d=2)
        policy.initial_placement(_catalog(200), None)
        reports = [_report(s, float(i)) for i, s in enumerate(SIDS)]
        policy.rebalance(SimpleNamespace(reports=reports))
        assert (policy._assign == 0).any()
        policy.server_failed(SIDS[0])
        assert not (policy._assign == 0).any()
        assert (policy._assign >= 0).all()

    def test_stranded_pairs_fall_back_to_global_best(self):
        policy = JSQd(SIDS, hash_family=HashFamily(seed=1), d=2)
        policy.initial_placement(_catalog(400), None)
        reports = [_report(s, 1.0) for s in SIDS]
        policy.rebalance(SimpleNamespace(reports=reports))
        # Kill every server but the last two; any file set whose whole
        # candidate pair died must route to a live server regardless.
        for sid in SIDS[:-2]:
            policy.server_failed(sid)
        assert set(np.unique(policy._assign)) <= {len(SIDS) - 2, len(SIDS) - 1}

    def test_recovery_unmasks_for_future_picks(self):
        policy = JSQd(SIDS, hash_family=HashFamily(seed=1), d=2)
        policy.initial_placement(_catalog(200), None)
        policy.rebalance(SimpleNamespace(reports=[_report(s, 1.0) for s in SIDS]))
        policy.server_failed(SIDS[0])
        policy.server_added(SIDS[0])
        # An idle recovered server wins its candidate pairs again.
        reports = [_report(SIDS[0], 0.0)] + [_report(s, 9.0) for s in SIDS[1:]]
        policy.rebalance(SimpleNamespace(reports=reports))
        assert (policy._assign == 0).any()
