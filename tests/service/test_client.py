"""Live client path: ledger discipline, multiplexing, retry/redirect."""

from __future__ import annotations

import asyncio
import math
import socket

import pytest

from repro.retry import Attempts, RequestLedger, RetryPolicy
from repro.service.client import FramedConnection, HardenedServiceClient
from repro.service.fileserver import EchoFileServer
from repro.service.locator import LocatorService


class TestRequestLedger:
    def test_settle_path(self):
        ledger = RequestLedger()
        attempts = Attempts(ledger, RetryPolicy())
        assert ledger.in_flight == 1 and ledger.dispatching == 1
        assert ledger.conserved and ledger.classified
        attempts.settle(0.25)
        assert ledger.completed == 1 and ledger.in_flight == 0
        assert ledger.dispatching == 0
        assert ledger.conserved and ledger.classified
        assert ledger.lost == 0
        assert ledger.latency.mean == pytest.approx(0.25)

    def test_exhaust_path(self):
        ledger = RequestLedger()
        attempts = Attempts(ledger, RetryPolicy())
        attempts.exhaust()
        assert ledger.failed == 1 and ledger.in_flight == 0
        assert ledger.dispatching == 0
        assert ledger.conserved and ledger.classified and ledger.lost == 0

    def test_lost_detects_imbalance(self):
        ledger = RequestLedger()
        ledger.injected = 5
        ledger.completed = 3
        assert not ledger.conserved
        assert ledger.lost == 2


def run(coro):
    return asyncio.run(coro)


async def start_stack(powers, time_scale=0.01, epoch_seconds=10.0):
    """Echo servers + locator on loopback; returns (servers, locator)."""
    servers = [
        EchoFileServer(sid, power, time_scale=time_scale)
        for sid, power in powers.items()
    ]
    addresses = {}
    for server in servers:
        addresses[server.server_id] = await server.start()
    locator = LocatorService(
        powers, addresses, epoch_seconds=epoch_seconds, time_scale=time_scale
    )
    await locator.start()
    return servers, locator


async def stop_stack(servers, locator, client=None):
    if client is not None:
        await client.close()
    await locator.stop()
    for server in servers:
        await server.stop()


class TestFramedConnection:
    def test_multiplexes_concurrent_requests(self):
        async def scenario():
            servers, locator = await start_stack({"s0": 1.0})
            try:
                conn = await FramedConnection.open("127.0.0.1", locator.port)
                replies = await asyncio.gather(
                    *(
                        conn.request({"op": "locate", "name": f"/fs/{i}"})
                        for i in range(10)
                    )
                )
                assert [r["name"] for r in replies] == [
                    f"/fs/{i}" for i in range(10)
                ]
                await conn.close()
            finally:
                await stop_stack(servers, locator)

        run(scenario())

    def test_peer_death_fails_pending_requests(self):
        async def scenario():
            servers, locator = await start_stack({"s0": 1.0})
            conn = await FramedConnection.open(
                *servers[0].address
            )
            pending = asyncio.ensure_future(
                conn.request({"op": "exec", "name": "/fs/1", "work": 50.0})
            )
            await asyncio.sleep(0.05)
            await servers[0].kill()
            with pytest.raises((ConnectionError, asyncio.IncompleteReadError)):
                await pending
            assert conn.closed
            await conn.close()
            await stop_stack([], locator)

        run(scenario())


class TestDrive:
    def test_drive_completes_and_reports(self):
        async def scenario():
            servers, locator = await start_stack({"s0": 1.0, "s1": 3.0})
            client = HardenedServiceClient(("127.0.0.1", locator.port))
            try:
                outcome = await client.drive("/fs/0001", work=1.0)
                assert outcome.ok
                assert outcome.server in ("s0", "s1")
                assert outcome.latency > 0
                assert client.completed == 1 and client.lost == 0
                assert client.conserved and client.classified
                # The latency sample reached the open epoch window.
                assert locator.batcher.pending(outcome.server) == 1
            finally:
                await stop_stack(servers, locator, client)

        run(scenario())

    def test_dead_server_exhausts_ledger_cleanly(self):
        async def scenario():
            servers, locator = await start_stack({"s0": 1.0})
            await servers[0].kill()  # answers nothing: attempts time out
            policy = RetryPolicy(
                request_timeout=0.05,
                max_attempts=2,
                backoff_base=0.01,
                backoff_cap=0.02,
                jitter=0.0,
            )
            client = HardenedServiceClient(
                ("127.0.0.1", locator.port), policy=policy
            )
            try:
                outcome = await client.drive("/fs/0001", work=0.1)
                assert not outcome.ok
                assert outcome.server is None and math.isnan(outcome.latency)
                assert client.failed == 1 and client.lost == 0
                assert client.conserved and client.classified
                assert client.retries >= 1
            finally:
                await stop_stack([], locator, client)

        run(scenario())

    def test_redirect_after_server_leaves(self):
        async def scenario():
            servers, locator = await start_stack({"s0": 1.0, "s1": 3.0})
            policy = RetryPolicy(
                request_timeout=0.2,
                max_attempts=5,
                backoff_base=0.01,
                backoff_cap=0.02,
                jitter=0.0,
            )
            client = HardenedServiceClient(
                ("127.0.0.1", locator.port), policy=policy
            )
            try:
                first = await client.drive("/fs/0001", work=0.1)
                assert first.ok
                # Kill the serving server and remove it from the map:
                # the next drive of the same name must redirect.
                victim = next(s for s in servers if s.server_id == first.server)
                await victim.kill()
                reply = client_reply = locator.handle(
                    {"op": "admin", "action": "kill", "server": first.server}
                )
                assert reply["ok"], client_reply
                second = await client.drive("/fs/0001", work=0.1)
                assert second.ok
                assert second.server != first.server
                assert client.completed == 2 and client.lost == 0
                assert client.conserved and client.classified
            finally:
                await stop_stack(
                    [s for s in servers if s.server_id != first.server],
                    locator,
                    client,
                )

        run(scenario())

    def test_cancelled_drive_keeps_ledger_conserved(self):
        async def scenario():
            servers, locator = await start_stack({"s0": 1.0}, time_scale=1.0)
            client = HardenedServiceClient(("127.0.0.1", locator.port))
            try:
                task = asyncio.ensure_future(client.drive("/fs/1", work=30.0))
                await asyncio.sleep(0.1)
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                assert client.injected == 1
                assert client.failed == 1
                assert client.in_flight == 0
                assert client.conserved and client.classified
                assert client.lost == 0
            finally:
                await stop_stack(servers, locator, client)

        run(scenario())


class TestUnreachableLocator:
    def test_resolver_failure_exhausts_the_request(self, monkeypatch):
        """An ``OSError`` that is not a ``ConnectionError`` (an unknown
        host) fails the attempt instead of escaping ``drive`` with the
        request still in flight."""

        async def unresolvable(cls, host, port):
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        monkeypatch.setattr(FramedConnection, "open", classmethod(unresolvable))
        policy = RetryPolicy(
            request_timeout=0.05, max_attempts=2, backoff_base=0.001, backoff_cap=0.002
        )
        client = HardenedServiceClient(("locator.invalid", 9), policy=policy)
        outcome = run(client.drive("/fs/1", 0.0))
        assert not outcome.ok
        assert client.failed == 1 and client.in_flight == 0
        assert client.conserved and client.classified
