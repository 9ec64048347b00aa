"""Client-side request hardening: timeout, backoff, redirect, ledger."""

from __future__ import annotations

import random

import pytest

from repro.cluster.request import MetadataRequest
from repro.cluster.server import FileServer
from repro.engine import HardenedClient, RequestDriver
from repro.retry import RetryPolicy


def make_request(arrival=0.0, work=1.0):
    return MetadataRequest(fileset="/fs/0", arrival=arrival, work=work)


def submit(client, request):
    """Drive ``request`` through the client: its row, with the object
    stamped as it settles."""
    client.submit_row((request.fileset, request.arrival, request.work), request)


class TestRetryPolicy:
    def test_jitter_deterministic_per_seed(self):
        policy = RetryPolicy()
        a = [policy.backoff(i, random.Random(5)) for i in range(1, 6)]
        b = [policy.backoff(i, random.Random(5)) for i in range(1, 6)]
        assert a == b


class TestHardenedClient:
    def test_direct_completion(self, env):
        server = FileServer(env, 0, power=10.0)
        client = HardenedClient(env, lambda r: server)
        request = make_request()
        submit(client, request)
        env.run(until=10.0)
        assert client.completed == 1
        assert client.retries == 0
        assert client.conserved
        assert request.completion is not None and request.server == 0

    def test_retry_until_server_appears(self, env):
        server = FileServer(env, 0, power=10.0)
        available = []
        client = HardenedClient(
            env,
            lambda r: server if available else None,
            policy=RetryPolicy(backoff_base=0.5, backoff_cap=0.5, jitter=0.0),
        )
        env.schedule_at(1.2, lambda: available.append(True))
        submit(client, make_request())
        env.run(until=10.0)
        assert client.completed == 1
        assert client.retries >= 2
        assert client.conserved

    def test_redirect_after_crash(self, env):
        """A crash mid-service abandons the attempt and redirects."""
        a = FileServer(env, "a", power=0.2)  # slow: requests linger
        b = FileServer(env, "b", power=10.0)
        client = HardenedClient(
            env,
            lambda r: b if a.failed else a,
            policy=RetryPolicy(request_timeout=2.0, backoff_base=0.25, jitter=0.0),
        )
        request = make_request(work=1.0)  # 5 s of service on `a`
        submit(client, request)
        env.schedule_at(1.0, a.fail)
        env.run(until=30.0)
        assert client.completed == 1
        assert client.redirects == 1
        assert client.timeouts >= 1
        assert request.server == "b"
        assert client.conserved

    def test_incarnation_change_detected(self, env):
        """Crash + instant recovery between timeout ticks is still seen:
        the attempt died with the old queue even though the server is
        up again, so the client must abandon instead of waiting forever."""
        server = FileServer(env, 0, power=0.2)
        client = HardenedClient(
            env, lambda r: server, policy=RetryPolicy(request_timeout=2.0, jitter=0.0)
        )
        blocker = make_request(work=4.0)  # 20 s of service: blocks the queue
        victim = make_request(work=0.2)
        server.submit(blocker)
        submit(client, victim)

        def bounce():
            server.fail()
            server.recover()

        env.schedule_at(0.5, bounce)  # before the first timeout tick
        env.run(until=60.0)
        assert client.completed == 1
        assert client.timeouts >= 1
        assert victim.completion is not None
        assert client.conserved

    def test_healthy_but_slow_server_not_abandoned(self, env):
        server = FileServer(env, 0, power=0.1)  # 10 s per unit of work
        client = HardenedClient(
            env, lambda r: server, policy=RetryPolicy(request_timeout=1.0, jitter=0.0)
        )
        submit(client, make_request(work=3.0))  # 30 s of service
        env.run(until=60.0)
        # Many timeout ticks fired, but the attempt was never abandoned.
        assert client.completed == 1
        assert client.timeouts == 0
        assert client.retries == 0

    def test_exhaustion_counts_as_failed(self, env):
        client = HardenedClient(
            env,
            lambda r: None,
            policy=RetryPolicy(max_attempts=3, backoff_base=0.1, backoff_cap=0.1, jitter=0.0),
        )
        submit(client, make_request())
        env.run(until=10.0)
        assert client.failed == 1
        assert client.retries == 3
        assert client.conserved

    def test_suspected_server_not_used(self, env):
        healthy = FileServer(env, "h", power=10.0)
        suspect = FileServer(env, "s", power=10.0)
        suspicions = {"s"}
        client = HardenedClient(
            env,
            lambda r: suspect if suspicions else healthy,
            policy=RetryPolicy(backoff_base=0.1, backoff_cap=0.1, jitter=0.0),
            suspected=lambda: suspicions,
        )
        env.schedule_at(0.5, suspicions.clear)
        submit(client, make_request())
        env.run(until=10.0)
        assert client.completed == 1
        assert client.retries >= 1  # refused the suspected target first

    def test_latency_includes_retry_delays(self, env):
        server = FileServer(env, 0, power=10.0)
        available = []
        client = HardenedClient(
            env,
            lambda r: server if available else None,
            policy=RetryPolicy(backoff_base=1.0, backoff_cap=1.0, jitter=0.0),
        )
        env.schedule_at(2.5, lambda: available.append(True))
        submit(client, make_request(arrival=0.0, work=0.1))
        env.run(until=10.0)
        assert client.latency.count == 1
        assert client.latency.mean > 2.5  # waited through the outage


class TestHardenedRequestDriver:
    def test_replays_schedule_through_client(self, env):
        server = FileServer(env, 0, power=10.0)
        client = HardenedClient(env, lambda r: server)
        schedule = [("/fs/0", float(i) * 0.1, 0.01) for i in range(10)]
        driver = RequestDriver(env, schedule, client=client)
        env.run(until=10.0)
        assert driver.submitted == 10
        assert client.failed == 0
        assert client.completed == 10

    def test_unsorted_schedule_rejected(self, env):
        client = HardenedClient(env, lambda r: None)
        schedule = [("/fs/0", 5.0, 1.0), ("/fs/0", 1.0, 1.0)]
        RequestDriver(env, schedule, client=client)
        with pytest.raises(ValueError):
            env.run()
