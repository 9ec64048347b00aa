"""The unified request driver and the hardened client's attempt loop."""

from __future__ import annotations

import random

import pytest

from repro.cluster.request import MetadataRequest
from repro.cluster.server import FileServer
from repro.engine.client_path import HardenedClient, RequestDriver
from repro.retry import RetryPolicy
from repro.sim import Simulator


def req(t: float, fileset: str = "/fs/0", work: float = 1.0) -> MetadataRequest:
    return MetadataRequest(fileset=fileset, arrival=t, work=work)


class TestRequestDriverModes:
    def test_exactly_one_of_route_or_client(self):
        env = Simulator()
        client = HardenedClient(env, route=lambda r: None)
        with pytest.raises(ValueError, match="exactly one"):
            RequestDriver(env, [], locate=lambda fileset: None, client=client)
        with pytest.raises(ValueError, match="exactly one"):
            RequestDriver(env, [])

    def test_schedule_must_be_sorted(self):
        # The order is checked as requests come due, not up front.
        env = Simulator()
        RequestDriver(env, [req(2.0), req(1.0)], locate=lambda fileset: None)
        with pytest.raises(ValueError, match="sorted"):
            env.run()

    def test_unsorted_schedule_raises_when_the_inversion_comes_due(self):
        env = Simulator()
        server = FileServer(env, "s0", power=5.0)
        schedule = [req(1.0), req(2.0), req(2.0), req(3.0), req(2.5), req(4.0)]
        driver = RequestDriver(env, schedule, locate=lambda fileset: "s0", servers={"s0": server})
        with pytest.raises(ValueError, match="sorted"):
            env.run(until=10.0)
        # Everything before the inversion went out; nothing after it.
        assert driver.submitted == 4
        assert env.now == 3.0

    def test_clock_rounding_past_an_arrival_is_not_an_inversion(self):
        # 0.7 + (a - 0.7) rounds one ulp above a, so the second request
        # at ``a`` comes due with a negative delay; it is still sorted.
        a = 3.0000000000000004
        assert 0.7 + (a - 0.7) > a
        env = Simulator()
        server = FileServer(env, "s0", power=5.0)
        driver = RequestDriver(
            env,
            [req(0.7), req(a), req(a), req(5.0)],
            locate=lambda fileset: "s0",
            servers={"s0": server},
        )
        env.run(until=10.0)
        assert driver.submitted == 4
        assert server.completed_requests == 4

    def test_basic_path_counts_drops(self):
        env = Simulator()
        server = FileServer(env, "s0", power=5.0)
        owners = {"/fs/0": "s0", "/fs/1": None}
        driver = RequestDriver(
            env,
            [req(0.5, "/fs/0"), req(1.0, "/fs/1")],
            locate=owners.__getitem__,
            servers={"s0": server},
        )
        env.run(until=10.0)
        assert driver.submitted == 1
        assert driver.dropped == 1

    def test_hardened_path_counts_through_client(self):
        env = Simulator()
        server = FileServer(env, "s0", power=5.0)
        client = HardenedClient(env, route=lambda r: server)
        driver = RequestDriver(env, [req(0.5), req(1.0)], client=client)
        env.run(until=30.0)
        assert driver.submitted == client.injected == 2
        assert driver.dropped == client.failed == 0
        assert client.completed == 2
        assert client.conserved


class TestRetryPolicy:
    def test_jitter_is_seeded(self):
        policy = RetryPolicy(jitter=0.5)
        a = [policy.backoff(2, random.Random(9)) for _ in range(3)]
        b = [policy.backoff(2, random.Random(9)) for _ in range(3)]
        assert a == b
        base = policy.backoff(2)
        assert all(base * 0.5 <= x <= base for x in a)


class TestDriveAttempts:
    """The hardened client's attempt loop, end to end on a simulator."""

    def test_retry_exhaustion_marks_failure(self):
        env = Simulator()
        policy = RetryPolicy(max_attempts=3, backoff_base=0.1, jitter=0.0)
        client = HardenedClient(env, route=lambda r: None, policy=policy)
        client.submit(req(0.0))
        env.run(until=60.0)
        assert client.failed == 1
        assert client.completed == 0
        assert client.retries == 3
        assert client.conserved

    def test_redirect_after_crash(self):
        env = Simulator()
        primary = FileServer(env, "s0", power=0.5)
        backup = FileServer(env, "s1", power=5.0)

        def route(r):
            return backup if primary.failed else primary

        policy = RetryPolicy(request_timeout=1.0, backoff_base=0.1, jitter=0.0)
        client = HardenedClient(env, route, policy=policy, rng=random.Random(3))
        client.submit(req(0.0, work=5.0))
        env.schedule_at(2.0, lambda: primary.fail())
        env.run(until=60.0)
        assert client.completed == 1
        assert client.redirects == 1
        assert client.timeouts == 1
        assert client.conserved
