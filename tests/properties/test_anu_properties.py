"""Property-based tests of ANU placement and tuning (hypothesis)."""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.control import MultiplicativeController
from repro.core import ANUManager, HashFamily, LatencyReport

names_strategy = st.lists(
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
        min_size=1,
        max_size=12,
    ).map(lambda s: "/" + s),
    min_size=1,
    max_size=40,
    unique=True,
)


def reports_for(mgr, latencies):
    reps = []
    for sid, lat in zip(mgr.layout.server_ids, latencies):
        idle = lat is None
        reps.append(
            LatencyReport(
                sid,
                math.nan if idle else lat,
                request_count=0 if idle else 50,
                idle_rounds=1 if idle else 0,
                prev_mean_latency=math.nan if idle else lat,
            )
        )
    return reps


class TestPlacementTotality:
    @given(names_strategy, st.integers(min_value=1, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_every_name_is_placed_on_a_live_server(self, names, k):
        mgr = ANUManager(server_ids=list(range(k)))
        placement = mgr.register_filesets(names)
        live = set(mgr.layout.server_ids)
        assert set(placement) == set(names)
        assert all(sid in live for sid in placement.values())

    @given(names_strategy, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_placement_is_hash_seed_deterministic(self, names, seed):
        a = ANUManager(server_ids=[0, 1, 2], hash_family=HashFamily(seed=seed))
        b = ANUManager(server_ids=[0, 1, 2], hash_family=HashFamily(seed=seed))
        assert a.register_filesets(names) == b.register_filesets(names)


class TestTuningInvariants:
    @given(
        names_strategy,
        st.lists(
            st.one_of(st.none(), st.floats(min_value=1e-3, max_value=1e3)),
            min_size=5,
            max_size=5,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_tune_keeps_layout_legal_and_assignments_total(self, names, lats):
        mgr = ANUManager(server_ids=list(range(5)))
        mgr.register_filesets(names)
        mgr.tune(reports_for(mgr, lats))
        mgr.layout.check_invariants()
        live = set(mgr.layout.server_ids)
        for name in names:
            assert mgr.assignment_of(name) in live
            assert mgr.lookup(name)[0] == mgr.assignment_of(name)

    @given(
        st.lists(
            st.lists(
                st.one_of(st.none(), st.floats(min_value=1e-3, max_value=1e3)),
                min_size=4,
                max_size=4,
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_repeated_rounds_never_break_half_occupancy(self, rounds):
        mgr = ANUManager(server_ids=list(range(4)))
        mgr.register_filesets([f"/fs{i}" for i in range(20)])
        for lats in rounds:
            mgr.tune(reports_for(mgr, lats))
        assert abs(mgr.layout.total_mapped - 0.5) < 1e-6

    @given(
        names_strategy,
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_shed_records_exactly_match_assignment_diffs(self, names, victims):
        mgr = ANUManager(server_ids=list(range(4)))
        mgr.register_filesets(names)
        for v in victims:
            if v in mgr.layout.server_ids and mgr.layout.n_servers > 1:
                before = mgr.assignments
                rec = mgr.fail_server(v)
                after = mgr.assignments
                diff = {n for n in names if before[n] != after[n]}
                assert {s.fileset for s in rec.sheds} == diff
            elif v not in mgr.layout.server_ids:
                rec = mgr.add_server(v)
                mgr.layout.check_invariants()


class TestDelegateDecisionPurity:
    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=3, max_size=3),
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_targets_always_normalize_to_half(self, lats, weights):
        mgr = ANUManager(server_ids=[0, 1, 2], controller=MultiplicativeController())
        mgr.engine.apply_targets(mgr.layout, dict(enumerate(weights)))
        reps = [
            LatencyReport(i, lat, request_count=10, prev_mean_latency=lat)
            for i, lat in enumerate(lats)
        ]
        rec = mgr.tune(reps)
        assert abs(sum(rec.lengths_after.values()) - 0.5) < 1e-9
        assert all(v >= 0 for v in rec.lengths_after.values())
