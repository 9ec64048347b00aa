"""Network fault model: partitions, link faults, liveness probing."""

from __future__ import annotations

import random

import pytest

from repro.distributed import Message, MessageKind, Network


class TestPartitions:
    def test_partitioned_pair_cannot_talk(self, env):
        net = Network(env)
        net.register("a")
        net.register("b")
        net.set_partition(["b"])
        net.send(Message("a", "b", MessageKind.REPORT))
        env.run()
        assert net.delivered["b"] == 0
        assert net.partition_dropped == 1
        assert net.dropped == 1
        assert net.partitioned

    def test_same_group_still_talks(self, env):
        net = Network(env)
        net.register("a")
        net.register("b")
        net.register("c")
        net.set_partition(["a", "b"])  # c is implicitly the other side
        net.send(Message("a", "b", MessageKind.REPORT))
        env.run()
        assert net.delivered["b"] == 1
        assert net.partition_dropped == 0

    def test_unlisted_nodes_share_the_implicit_group(self, env):
        net = Network(env)
        net.register("a")
        net.register("d")
        net.set_partition(["b", "c"])
        net.send(Message("a", "d", MessageKind.REPORT))
        env.run()
        assert net.delivered["d"] == 1

    def test_heal_restores_delivery(self, env):
        net = Network(env)
        net.register("a")
        net.register("b")
        net.set_partition(["b"])
        net.heal_partition()
        assert not net.partitioned
        net.send(Message("a", "b", MessageKind.REPORT))
        env.run()
        assert net.delivered["b"] == 1

    def test_node_in_two_groups_rejected(self, env):
        net = Network(env)
        with pytest.raises(ValueError):
            net.set_partition(["a", "b"], ["b", "c"])

    def test_reachable_reflects_partition(self, env):
        net = Network(env)
        net.set_partition(["a"], ["b"])
        assert not net.reachable("a", "b")
        assert net.reachable("a", "a")
        net.heal_partition()
        assert net.reachable("a", "b")


class TestLinkFaults:
    def test_rates_require_rng(self, env):
        net = Network(env)
        with pytest.raises(ValueError, match="rng"):
            net.set_link_faults(drop_rate=0.1)

    def test_rate_bounds_validated(self, env):
        net = Network(env, rng=random.Random(1))
        with pytest.raises(ValueError):
            net.set_link_faults(drop_rate=1.0)
        with pytest.raises(ValueError):
            net.set_link_faults(dup_rate=-0.1)
        with pytest.raises(ValueError):
            net.set_link_faults(extra_delay=-1.0)

    def test_drop_rate_loses_messages(self, env):
        net = Network(env, rng=random.Random(1))
        net.register("a")
        net.register("b")
        net.set_link_faults(drop_rate=0.5)
        for _ in range(200):
            net.send(Message("a", "b", MessageKind.REPORT))
        env.run()
        assert net.chaos_dropped > 50
        assert net.delivered["b"] == 200 - net.chaos_dropped

    def test_duplication_delivers_extra_copies(self, env):
        net = Network(env, rng=random.Random(1))
        net.register("a")
        net.register("b")
        net.set_link_faults(dup_rate=0.5)
        for _ in range(100):
            net.send(Message("a", "b", MessageKind.REPORT))
        env.run()
        assert net.chaos_duplicated > 20
        assert net.delivered["b"] == 100 + net.chaos_duplicated

    def test_extra_delay_slows_delivery(self, env):
        net = Network(env, delay=0.1, rng=random.Random(1))
        net.register("a")
        net.register("b")
        net.set_link_faults(extra_delay=5.0)
        net.send(Message("a", "b", MessageKind.REPORT))
        env.run(until=0.1)
        assert net.delivered["b"] == 0
        env.run()
        assert net.delivered["b"] == 1 and env.now > 0.1

    def test_clear_restores_reliability(self, env):
        net = Network(env, rng=random.Random(1))
        net.register("a")
        net.register("b")
        net.set_link_faults(drop_rate=0.9, dup_rate=0.5, extra_delay=1.0)
        net.clear_link_faults()
        for _ in range(50):
            net.send(Message("a", "b", MessageKind.REPORT))
        env.run()
        assert net.delivered["b"] == 50
        assert net.chaos_dropped == 0

    def test_same_seed_same_fault_pattern(self, env):
        def run(seed):
            from repro.sim import Simulator

            env = Simulator()
            net = Network(env, rng=random.Random(seed))
            net.register("a")
            net.register("b")
            net.set_link_faults(drop_rate=0.3, dup_rate=0.2)
            for _ in range(100):
                net.send(Message("a", "b", MessageKind.REPORT))
            env.run()
            return net.chaos_dropped, net.chaos_duplicated

        assert run(9) == run(9)


class TestProbe:
    def test_probe_up_node_succeeds_and_accounts_traffic(self, env):
        net = Network(env)
        net.register("m")
        net.register("s")
        assert net.probe("m", "s")
        assert net.sent_count[MessageKind.HEARTBEAT] == 1
        assert net.sent_count[MessageKind.HEARTBEAT_ACK] == 1

    def test_probe_down_node_fails(self, env):
        net = Network(env)
        net.register("m")
        net.register("s")
        net.set_down("s")
        assert not net.probe("m", "s")
        assert net.sent_count[MessageKind.HEARTBEAT_ACK] == 0

    def test_probe_unknown_node_fails(self, env):
        net = Network(env)
        net.register("m")
        assert not net.probe("m", "ghost")

    def test_probe_through_partition_fails(self, env):
        net = Network(env)
        net.register("m")
        net.register("s")
        net.set_partition(["s"])
        assert not net.probe("m", "s")
        net.heal_partition()
        assert net.probe("m", "s")

    def test_probe_subject_to_link_drop(self, env):
        net = Network(env, rng=random.Random(3))
        net.register("m")
        net.register("s")
        net.set_link_faults(drop_rate=0.5)
        results = [net.probe("m", "s") for _ in range(100)]
        # With 50% per-leg loss, both outcomes must occur.
        assert any(results) and not all(results)
