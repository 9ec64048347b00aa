"""Election, heartbeats, state accounting, and the tuning service."""

from __future__ import annotations

import math

import pytest

from repro.core import ANUManager, IntervalLayout, LatencyReport
from repro.distributed import (
    DistributedTuningService,
    HeartbeatMonitor,
    MessageKind,
    Network,
    anu_footprint,
    chord_ring_footprint,
    elect,
    lookup_table_footprint,
    simple_footprint,
    state_table,
    virtual_processor_footprint,
)
from repro.sim import Simulator


class TestElect:
    def test_highest_id_wins(self):
        assert elect([0, 3, 1]) == 3
        assert elect(["a", "c", "b"]) == "c"

    def test_single_node(self):
        assert elect([7]) == 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            elect([])


class TestHeartbeat:
    def test_failure_detected_after_misses(self, env):
        net = Network(env)
        for n in ("obs", "p1"):
            net.register(n)
        failures = []
        mon = HeartbeatMonitor(
            env, net, "obs", ["p1"], period=1.0, misses=3, on_failure=failures.append
        )
        net.set_down("p1")
        env.run(until=10.0)
        assert failures == ["p1"]
        assert mon.suspected == {"p1"}

    def test_no_false_positive_on_live_peer(self, env):
        net = Network(env)
        for n in ("obs", "p1"):
            net.register(n)
        failures = []
        HeartbeatMonitor(
            env, net, "obs", ["p1"], period=1.0, misses=2, on_failure=failures.append
        )
        env.run(until=20.0)
        assert failures == []

    def test_recovery_detected(self, env):
        net = Network(env)
        for n in ("obs", "p1"):
            net.register(n)
        events = []
        HeartbeatMonitor(
            env,
            net,
            "obs",
            ["p1"],
            period=1.0,
            misses=2,
            on_failure=lambda p: events.append(("fail", p)),
            on_recovery=lambda p: events.append(("recover", p)),
        )
        net.set_down("p1")
        env.schedule_at(10.0, lambda: net.set_down("p1", down=False))
        env.run(until=20.0)
        assert events == [("fail", "p1"), ("recover", "p1")]

    def test_detection_bound(self, env):
        net = Network(env)
        net.register("obs")
        net.register("p")
        declared = []
        HeartbeatMonitor(
            env, net, "obs", ["p"], period=2.0, misses=3,
            on_failure=lambda p: declared.append(env.now),
        )
        env.schedule_at(0.5, lambda: net.set_down("p"))
        env.run(until=20.0)
        # Worst case from crash to declaration: period * (misses + 1).
        assert len(declared) == 1 and 0 < declared[0] - 0.5 <= 2.0 * (3 + 1)

    def test_validation(self, env):
        net = Network(env)
        net.register("o")
        with pytest.raises(ValueError):
            HeartbeatMonitor(env, net, "o", [], period=0.0)
        with pytest.raises(ValueError):
            HeartbeatMonitor(env, net, "o", [], misses=0)


class TestStateAccounting:
    def test_relative_ordering_of_schemes(self):
        layout = IntervalLayout.initial(list(range(5)))
        anu = anu_footprint(layout)
        vp = virtual_processor_footprint(25)
        table = lookup_table_footprint(50)
        simple = simple_footprint(5)
        # The §5.4/§6 hierarchy: simple ~ ANU << VP(v=5) < table.
        assert simple.entries <= anu.entries < vp.entries < table.entries

    def test_anu_probe_cost_is_two(self):
        layout = IntervalLayout.initial(list(range(4)))
        assert anu_footprint(layout).lookup_probes == 2.0

    def test_chord_variant_trades_state_for_probes(self):
        vp = virtual_processor_footprint(64)
        chord = chord_ring_footprint(64)
        assert chord.entries < vp.entries
        assert chord.lookup_probes > vp.lookup_probes

    def test_bytes_scale_with_entries(self):
        fp = lookup_table_footprint(100)
        assert fp.bytes == 100 * 24

    def test_state_table_complete(self):
        layout = IntervalLayout.initial(list(range(5)))
        rows = state_table(layout, n_virtual=25, n_filesets=50)
        assert [r.scheme for r in rows] == [
            "simple",
            "anu",
            "virtual",
            "virtual-chord",
            "table",
        ]

    @pytest.mark.parametrize(
        "fn,arg", [(virtual_processor_footprint, 0), (lookup_table_footprint, 0), (simple_footprint, 0)]
    )
    def test_validation(self, fn, arg):
        with pytest.raises(ValueError):
            fn(arg)


class TestTuningService:
    def _reports(self, mgr):
        counts = mgr.load_counts()
        powers = {0: 1.0, 1: 3.0, 2: 5.0, 3: 7.0, 4: 9.0}
        return [
            LatencyReport(
                sid,
                counts[sid] / powers[sid] if counts[sid] else math.nan,
                request_count=counts[sid],
                idle_rounds=0 if counts[sid] else 1,
                prev_mean_latency=counts[sid] / powers[sid] if counts[sid] else math.nan,
            )
            for sid in powers
        ]

    def test_round_sends_reports_and_mapping(self, env):
        net = Network(env)
        mgr = ANUManager(server_ids=[0, 1, 2, 3, 4])
        mgr.register_filesets([f"/fs{i}" for i in range(40)])
        svc = DistributedTuningService(env, net, mgr, lambda: self._reports(mgr))
        rec = svc.run_round()
        assert rec.round_index == 1
        assert net.sent_count[MessageKind.REPORT] == 5
        assert net.sent_count[MessageKind.MAPPING] >= 4
        assert net.sent_count[MessageKind.SHED_NOTIFY] == len(rec.sheds)

    def test_delegate_failover_changes_nothing_but_delegate(self, env):
        """§4: 'the next elected delegate runs the same protocol with
        the same information' — fail-over must not perturb decisions."""
        net = Network(env)
        mgr = ANUManager(server_ids=[0, 1, 2, 3, 4])
        mgr.register_filesets([f"/fs{i}" for i in range(40)])
        svc = DistributedTuningService(env, net, mgr, lambda: self._reports(mgr))
        first = svc.delegate_id
        svc.run_round()
        victim = svc.fail_delegate()
        assert victim == first
        rec = svc.run_round()
        assert svc.failovers == 1
        assert svc.delegate_id != victim
        assert rec.round_index == 2
        mgr.layout.check_invariants()

    def test_no_live_servers_rejected(self, env):
        net = Network(env)
        mgr = ANUManager(server_ids=[0])
        svc = DistributedTuningService(env, net, mgr, lambda: [])
        net.set_down(0)
        with pytest.raises(RuntimeError):
            svc.run_round()
