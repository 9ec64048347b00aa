"""Network transport, messages, and traffic accounting."""

from __future__ import annotations

import pytest

from repro.distributed import Message, MessageKind, Network
from repro.sim import Simulator


class TestMessage:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Message(src=0, dst=1, kind="gossip")

    def test_wire_size_mapping_scales_with_regions(self):
        small = Message(0, 1, MessageKind.MAPPING, payload={0: [(0.0, 0.1)]})
        large = Message(
            0, 1, MessageKind.MAPPING, payload={i: [(0.0, 0.1), (0.2, 0.3)] for i in range(5)}
        )
        assert large.wire_size > small.wire_size

    def test_seq_monotone(self):
        a = Message(0, 1, MessageKind.HEARTBEAT)
        b = Message(0, 1, MessageKind.HEARTBEAT)
        assert b.seq > a.seq


class TestNetwork:
    def test_delivery_after_delay(self, env):
        net = Network(env, delay=0.5)
        net.register("b")
        net.send(Message("a", "b", MessageKind.REPORT, payload=42))
        env.run(until=0.49)
        assert net.delivered == {"b": 0}
        env.run(until=0.5)
        assert net.delivered == {"b": 1}

    def test_fifo_between_same_pair(self, env):
        """Messages between one pair arrive in send order."""
        net = Network(env, delay=0.1)
        net.register("b")
        arrivals = []
        deliver = net._deliver
        net._deliver = lambda msg: (arrivals.append(msg.payload), deliver(msg))
        for i in range(5):
            net.send(Message("a", "b", MessageKind.REPORT, payload=i))
        env.run()
        assert arrivals == [0, 1, 2, 3, 4]
        assert net.delivered["b"] == 5

    def test_down_node_drops(self, env):
        net = Network(env)
        net.register("b")
        net.set_down("b")
        net.send(Message("a", "b", MessageKind.HEARTBEAT))
        env.run()
        assert net.dropped == 1

    def test_message_to_unknown_node_drops(self, env):
        net = Network(env)
        net.send(Message("a", "ghost", MessageKind.HEARTBEAT))
        assert net.dropped == 1

    def test_in_flight_message_dropped_if_node_dies(self, env):
        net = Network(env, delay=1.0)
        net.register("b")
        net.send(Message("a", "b", MessageKind.REPORT))
        net.set_down("b")  # dies while message in flight
        env.run()
        assert net.dropped == 1
        assert net.delivered["b"] == 0

    def test_recovery_allows_delivery_again(self, env):
        net = Network(env)
        net.register("b")
        net.set_down("b")
        net.set_down("b", down=False)
        net.send(Message("a", "b", MessageKind.REPORT))
        env.run()
        assert net.delivered["b"] == 1

    def test_broadcast_excludes_sender(self, env):
        net = Network(env)
        for n in ("a", "b", "c"):
            net.register(n)
        count = net.broadcast("a", MessageKind.MAPPING, payload={})
        assert count == 2

    def test_traffic_accounting(self, env):
        net = Network(env)
        net.register("b")
        net.send(Message("a", "b", MessageKind.REPORT))
        net.send(Message("a", "b", MessageKind.HEARTBEAT))
        assert net.sent_count[MessageKind.REPORT] == 1
        assert net.sent_count[MessageKind.HEARTBEAT] == 1
        assert sum(net.sent_count.values()) == 2
        assert net.total_bytes > 0

    def test_duplicate_registration_rejected(self, env):
        net = Network(env)
        net.register("a")
        with pytest.raises(ValueError):
            net.register("a")

    def test_callable_delay(self, env):
        net = Network(env, delay=lambda msg: 2.0)
        net.register("b")
        net.send(Message("a", "b", MessageKind.REPORT))
        env.run(until=1.99)
        assert net.delivered["b"] == 0
        env.run()
        assert net.delivered["b"] == 1 and env.now == 2.0
