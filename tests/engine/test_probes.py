"""The instrumentation bus: dispatch semantics and live observers."""

from __future__ import annotations

import pytest

from repro.core.hashing import HashFamily
from repro.engine import ClusterConfig, ExperimentSpec
from repro.engine.probes import (
    MovesApplied,
    Observer,
    ProbeBus,
    ProbeEvent,
    RequestCompleted,
    RunCompleted,
    RunStarted,
)
from repro.policies import ANURandomization

from .conftest import POWERS


def anu_policy():
    return ANURandomization(list(POWERS), hash_family=HashFamily(seed=0))


class TestProbeBus:
    def test_exact_type_dispatch(self):
        bus = ProbeBus()
        seen = []
        bus.subscribe(RunStarted, seen.append)
        bus.publish(RunStarted(time=0.0, policy_name="anu", n_servers=5))
        bus.publish(RunCompleted(time=1.0, events_processed=3))
        assert [type(e) for e in seen] == [RunStarted]

    def test_no_subclass_fanout(self):
        """Dispatch is by exact class — the catalog is flat by design."""
        bus = ProbeBus()
        seen = []
        bus.subscribe(ProbeEvent, seen.append)
        bus.publish(RunStarted(time=0.0, policy_name="anu", n_servers=5))
        # The wildcard (ProbeEvent) subscription *does* see everything…
        assert len(seen) == 1
        # …but a subscription to one concrete type sees only that type
        # (covered by test_exact_type_dispatch); there is no partial
        # hierarchy in between.

    def test_wildcard_runs_after_exact(self):
        bus = ProbeBus()
        order = []
        bus.subscribe(RunStarted, lambda e: order.append("exact"))
        bus.subscribe(ProbeEvent, lambda e: order.append("wildcard"))
        bus.publish(RunStarted(time=0.0, policy_name="anu", n_servers=5))
        assert order == ["exact", "wildcard"]

    def test_wants(self):
        bus = ProbeBus()
        assert not bus.wants(RequestCompleted)
        fn = bus.subscribe(RequestCompleted, lambda e: None)
        assert bus.wants(RequestCompleted)
        assert not bus.wants(RunStarted)
        bus.unsubscribe(RequestCompleted, fn)
        assert not bus.wants(RequestCompleted)
        # A wildcard subscriber wants everything.
        bus.subscribe(ProbeEvent, lambda e: None)
        assert bus.wants(RequestCompleted) and bus.wants(RunStarted)

    def test_unsubscribe_missing_is_noop(self):
        bus = ProbeBus()
        bus.unsubscribe(RunStarted, lambda e: None)  # must not raise

    def test_subscribe_rejects_non_event_types(self):
        bus = ProbeBus()
        with pytest.raises(TypeError):
            bus.subscribe(int, lambda e: None)
        with pytest.raises(TypeError):
            bus.subscribe("RunStarted", lambda e: None)

    def test_published_counter(self):
        bus = ProbeBus()
        bus.publish(RunStarted(time=0.0, policy_name="anu", n_servers=5))
        bus.publish(RunCompleted(time=1.0, events_processed=3))
        bus.publish(RunCompleted(time=2.0, events_processed=4))
        assert bus.published == {"RunStarted": 1, "RunCompleted": 2}


class TestLiveObservers:
    def test_sla_probe_counts_every_completion(self, tiny_workload):
        """A declared observer subscribed to the opt-in completion probe
        sees every completed request, and nothing else turns it on."""

        class Completions(Observer):
            subscriptions = {RequestCompleted: "on_completed"}

            def __init__(self):
                self.per_server = {}

            def on_completed(self, event):
                self.per_server[event.server_id] = self.per_server.get(event.server_id, 0) + 1

        seen = Completions()
        engine = ExperimentSpec(
            tiny_workload.fork(),
            anu_policy(),
            ClusterConfig(server_powers=POWERS),
            observers=(seen,),
        ).build()
        result = engine.run()
        assert sum(seen.per_server.values()) == result.completed > 0
        assert seen.per_server == {
            sid: n for sid, n in result.server_requests.items() if n
        }
        assert engine.bus.published["RequestCompleted"] == result.completed

    def test_completion_probe_is_opt_in(self, tiny_workload):
        """Without a RequestCompleted subscriber, the hot event never exists."""
        engine = ExperimentSpec(
            tiny_workload.fork(), anu_policy(), ClusterConfig(server_powers=POWERS)
        ).build()
        assert all(srv.probe is None for srv in engine.servers.values())
        engine.run()
        assert "RequestCompleted" not in engine.bus.published
        # Lifecycle events still flow.
        assert engine.bus.published["RunStarted"] == 1
        assert engine.bus.published["RunCompleted"] == 1

    def test_bare_probe_subscription(self, tiny_workload):
        moves = []
        bus = ProbeBus()
        bus.subscribe(MovesApplied, moves.append)
        result = (
            ExperimentSpec(
                tiny_workload.fork(),
                anu_policy(),
                ClusterConfig(server_powers=POWERS),
                bus=bus,
            )
            .build()
            .run()
        )
        assert len(moves) == len(result.movement)
