"""Heartbeat recovery hysteresis: N consecutive successes to un-declare."""

from __future__ import annotations

import pytest

from repro.distributed import Network
from repro.distributed.heartbeat import HeartbeatMonitor


def make_monitor(env, recoveries, misses=2):
    net = Network(env)
    net.register("m")
    net.register("p")
    failures, recoveries_seen = [], []
    mon = HeartbeatMonitor(
        env,
        net,
        "m",
        peers=["p"],
        period=1.0,
        misses=misses,
        recoveries=recoveries,
        on_failure=lambda p: failures.append(env.now),
        on_recovery=lambda p: recoveries_seen.append(env.now),
    )
    return net, mon, failures, recoveries_seen


class TestHysteresis:
    def test_flap_does_not_undeclared_single_success(self, env):
        """One answered probe among losses must not un-declare the peer.

        Timeline (period 1, misses 2, recoveries 2):
          t=0    peer goes down
          t=2    declared failed (2 misses)
          t=2.5  link flaps up  -> success at t=3 (streak 1)
          t=3.5  link flaps down -> miss at t=4 resets the streak
          t=4.5  link stays up  -> successes at t=5, 6 -> recovery at 6
        """
        net, mon, failures, recoveries = make_monitor(env, recoveries=2)
        net.set_down("p")
        env.schedule_at(2.5, lambda: net.set_down("p", False))
        env.schedule_at(3.5, lambda: net.set_down("p"))
        env.schedule_at(4.5, lambda: net.set_down("p", False))
        env.run(until=10.0)
        assert failures == [2.0]
        assert recoveries == [6.0]  # NOT 3.0: the flap reset the streak
        assert mon.failure_declarations == 1
        assert mon.recovery_declarations == 1
        assert mon.suspected == set()

    def test_recoveries_one_restores_instant_recovery(self, env):
        net, mon, failures, recoveries = make_monitor(env, recoveries=1)
        net.set_down("p")
        env.schedule_at(2.5, lambda: net.set_down("p", False))
        env.run(until=5.0)
        assert failures == [2.0]
        assert recoveries == [3.0]  # first success un-declares immediately

    def test_still_suspected_between_declare_and_recovery(self, env):
        net, mon, failures, recoveries = make_monitor(env, recoveries=3)
        net.set_down("p")
        env.schedule_at(2.5, lambda: net.set_down("p", False))

        observed = []
        env.schedule_at(4.5, lambda: observed.append(("mid", mon.suspected)))
        env.run(until=8.0)
        # At t=4.5 the peer has answered twice (t=3, 4) of the three
        # required: still suspected.
        assert observed == [("mid", {"p"})]
        assert recoveries == [5.0]

    def test_recovery_latency_bound(self, env):
        net, _, _, recoveries = make_monitor(env, recoveries=2)
        net.set_down("p")
        env.schedule_at(5.5, lambda: net.set_down("p", down=False))
        env.run(until=20.0)
        # Worst case from heal to recovery: period * (recoveries + 1).
        assert len(recoveries) == 1 and 0 < recoveries[0] - 5.5 <= 1.0 * (2 + 1)

    def test_invalid_recoveries_rejected(self, env):
        net = Network(env)
        net.register("m")
        with pytest.raises(ValueError):
            HeartbeatMonitor(env, net, "m", peers=[], period=1.0, recoveries=0)

