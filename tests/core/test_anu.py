"""ANUManager: lookup, registry, tuning rounds, membership churn."""

from __future__ import annotations

import math

import pytest

from repro.control import MultiplicativeController
from repro.core import (
    ANUManager,
    HashFamily,
    LatencyReport,
    LookupExhaustedError,
    UnknownServerError,
    required_partitions,
)

POWERS = {0: 1.0, 1: 3.0, 2: 5.0, 3: 7.0, 4: 9.0}


def make_manager(**kw):
    return ANUManager(server_ids=list(POWERS), **kw)


def reports_from_loads(mgr, prev=None):
    """Synthesize latency reports proportional to load/power."""
    counts = mgr.load_counts()
    reps = []
    for sid, power in POWERS.items():
        cnt = counts[sid]
        lat = cnt / power if cnt else math.nan
        p = prev.get(sid, lat) if prev else lat
        reps.append(
            LatencyReport(
                sid, lat, request_count=cnt, idle_rounds=0 if cnt else 1,
                prev_mean_latency=p,
            )
        )
    return reps


class TestLookup:
    def test_lookup_returns_live_server(self):
        mgr = make_manager()
        for i in range(50):
            sid, probes = mgr.lookup(f"/fs{i}")
            assert sid in POWERS
            assert probes >= 1

    def test_lookup_deterministic(self):
        a, b = make_manager(), make_manager()
        for i in range(30):
            assert a.lookup(f"/x{i}")[0] == b.lookup(f"/x{i}")[0]

    def test_mean_probes_near_two(self):
        """Half occupancy → geometric(1/2) probes → mean ≈ 2 (§4)."""
        mgr = make_manager()
        for i in range(3000):
            mgr.lookup(f"/name/{i}")
        assert 1.8 < mgr.mean_probes < 2.2

    def test_initial_partition_count(self):
        mgr = make_manager()
        assert mgr.layout.n_partitions == required_partitions(5) == 16


class TestRegistry:
    def test_register_is_idempotent(self):
        mgr = make_manager()
        first = mgr.register_fileset("/a")
        second = mgr.register_fileset("/a")
        assert first == second
        assert len(mgr.assignments) == 1

    def test_assignment_lookup_roundtrip(self):
        mgr = make_manager()
        mgr.register_filesets([f"/fs{i}" for i in range(20)])
        for name, sid in mgr.assignments.items():
            assert mgr.lookup(name)[0] == sid

    def test_unregister(self):
        mgr = make_manager()
        mgr.register_fileset("/a")
        mgr.unregister_fileset("/a")
        with pytest.raises(KeyError):
            mgr.assignment_of("/a")

    def test_load_counts_cover_all_servers(self):
        mgr = make_manager()
        mgr.register_filesets([f"/fs{i}" for i in range(10)])
        counts = mgr.load_counts()
        assert set(counts) == set(POWERS)
        assert sum(counts.values()) == 10


class TestTuning:
    def test_converges_to_power_proportional_loads(self):
        """The headline behaviour: latencies equalize, loads ∝ power."""
        mgr = make_manager(controller=MultiplicativeController(deadband=0.05))
        mgr.register_filesets([f"/fs{i}" for i in range(200)])
        prev = {}
        for _ in range(40):
            reps = reports_from_loads(mgr, prev)
            prev = {r.server_id: r.mean_latency for r in reps}
            mgr.tune(reps)
        counts = mgr.load_counts()
        # Per-power load ratio should be roughly flat for big servers.
        per_power = {sid: counts[sid] / POWERS[sid] for sid in (2, 3, 4)}
        vals = list(per_power.values())
        assert max(vals) < 2.5 * min(vals)

    def test_tune_reports_sheds_consistently(self):
        mgr = make_manager()
        mgr.register_filesets([f"/fs{i}" for i in range(100)])
        before = mgr.assignments
        rec = mgr.tune(reports_from_loads(mgr))
        after = mgr.assignments
        changed = {n for n in before if before[n] != after[n]}
        assert {s.fileset for s in rec.sheds} == changed
        for shed in rec.sheds:
            assert shed.source == before[shed.fileset]
            assert shed.target == after[shed.fileset]

    def test_half_occupancy_maintained_across_rounds(self):
        mgr = make_manager()
        mgr.register_filesets([f"/fs{i}" for i in range(50)])
        for _ in range(10):
            mgr.tune(reports_from_loads(mgr))
            mgr.layout.check_invariants()

    def test_round_counter_and_total_sheds(self):
        mgr = make_manager()
        mgr.register_filesets(["/a", "/b"])
        r1 = mgr.tune(reports_from_loads(mgr))
        r2 = mgr.tune(reports_from_loads(mgr))
        assert (r1.round_index, r2.round_index) == (1, 2)
        assert mgr.total_sheds == r1.moved + r2.moved


class TestMembership:
    def test_fail_moves_only_victims_filesets(self):
        mgr = make_manager()
        mgr.register_filesets([f"/fs{i}" for i in range(100)])
        victims = {name for name, sid in mgr.assignments.items() if sid == 2}
        rec = mgr.fail_server(2)
        assert {s.fileset for s in rec.sheds} >= victims
        # Everything that moved either lived on the failed server or
        # was displaced by survivors growing into freed space — but the
        # failed server's sets must all have moved.
        for shed in rec.sheds:
            assert shed.target != 2

    def test_fail_then_recover_restores_membership(self):
        mgr = make_manager()
        mgr.register_filesets([f"/fs{i}" for i in range(50)])
        mgr.fail_server(0)
        assert 0 not in mgr.layout.server_ids
        rec = mgr.recover_server(0)
        assert 0 in mgr.layout.server_ids
        assert rec.kind == "recover"
        mgr.layout.check_invariants()

    def test_add_server_attracts_filesets(self):
        mgr = make_manager()
        mgr.register_filesets([f"/fs{i}" for i in range(100)])
        rec = mgr.add_server(5)
        gained = [s for s in rec.sheds if s.target == 5]
        assert gained, "new server got nothing"
        assert mgr.load_counts()[5] == sum(sid == 5 for sid in mgr.assignments.values())

    def test_remove_unknown_server_rejected(self):
        mgr = make_manager()
        with pytest.raises(UnknownServerError):
            mgr.remove_server(99)

    def test_fail_all_but_one(self):
        mgr = make_manager()
        mgr.register_filesets([f"/fs{i}" for i in range(20)])
        for sid in (0, 1, 2, 3):
            mgr.fail_server(sid)
        assert mgr.layout.server_ids == [4]
        assert all(sid == 4 for sid in mgr.assignments.values())

    def test_figure3_add_fifth_server_repartitions(self):
        mgr = ANUManager(server_ids=[0, 1, 2, 3])
        assert mgr.layout.n_partitions == 8
        mgr.register_filesets([f"/fs{i}" for i in range(40)])
        mgr.add_server(4)
        assert mgr.layout.n_partitions == 16
        mgr.layout.check_invariants()
