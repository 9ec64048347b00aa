"""Live client path: ledger discipline, multiplexing, retry/redirect."""

from __future__ import annotations

import asyncio
import math
import socket
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.control import EpochBatcher
from repro.retry import Attempts, RequestLedger, RetryPolicy
from repro.service import client as client_module
from repro.service.client import FramedConnection, HardenedServiceClient, ReportFold
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


async def barrier(client):
    """One ``map`` round trip on the client's locator connection: the
    locator answers a connection's frames in order, so the reply proves
    every report frame the client sent before it was handled."""
    return await client._locator.request({"op": "map"})


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
                # The report frame is not awaited; a reply on the same
                # locator connection proves it was handled, and its
                # sample reached the open epoch window.
                assert (await barrier(client))["ok"]
                assert locator.batcher.pending(outcome.server) == 1
            finally:
                await stop_stack(servers, locator, client)

        run(scenario())

    def test_burst_sends_at_most_two_report_frames_per_server(self, monkeypatch):
        monkeypatch.setattr(client_module, "REPORT_WINDOW_S", 60.0)

        async def scenario():
            servers, locator = await start_stack({"s0": 1.0, "s1": 3.0})
            frames = Counter()
            handle = locator.handle

            def counting(message):
                if message.get("op") == "report":
                    frames[message["server"]] += 1
                return handle(message)

            locator.handle = counting
            client = HardenedServiceClient(("127.0.0.1", locator.port))
            try:
                outcomes = await asyncio.gather(
                    *(client.drive(f"/fs/{i}", work=0.0) for i in range(30))
                )
                assert all(o.ok for o in outcomes)
                await client.close()
                assert max(frames.values()) <= 2, frames
                assert locator.samples_received == 30
            finally:
                await stop_stack(servers, locator, client)

        run(scenario())

    def test_window_close_sends_the_trailing_fold(self):
        async def scenario():
            servers, locator = await start_stack({"s0": 1.0})
            client = HardenedServiceClient(("127.0.0.1", locator.port))
            try:
                # Leading edge: with no window open the sample leaves at once.
                assert (await client.drive("/fs/0", work=0.0)).ok
                await barrier(client)
                assert locator.samples_received == 1
                for i in (1, 2):
                    assert (await client.drive(f"/fs/{i}", work=0.0)).ok
                await asyncio.sleep(2 * client_module.REPORT_WINDOW_S)
                await barrier(client)
                assert locator.samples_received == 3
            finally:
                await stop_stack(servers, locator, client)

        run(scenario())

    def test_close_flushes_an_open_window(self, monkeypatch):
        monkeypatch.setattr(client_module, "REPORT_WINDOW_S", 60.0)

        async def scenario():
            servers, locator = await start_stack({"s0": 1.0})
            client = HardenedServiceClient(("127.0.0.1", locator.port))
            try:
                assert (await client.drive("/fs/1", work=0.0)).ok
                assert (await client.drive("/fs/2", work=0.0)).ok
                await barrier(client)
                assert locator.samples_received == 1
                await client.close()
                assert locator.samples_received == 2
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


SAMPLES = st.lists(
    st.tuples(
        st.sampled_from(["s0", "s1", "s2"]),
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
        st.booleans(),  # the window closes after this sample
    ),
    max_size=200,
)


class TestReportFold:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(SAMPLES, min_size=1, max_size=4))
    def test_folded_reports_give_the_per_sample_epoch_means(self, epochs):
        servers = ["s0", "s1", "s2"]
        one_by_one, folded = EpochBatcher(servers), EpochBatcher(servers)
        fold = ReportFold()

        def deliver():
            for frame in fold.drain():
                folded.observe(frame["server"], frame["latency"], frame["count"])

        for samples in epochs:
            for server, latency, window_closes in samples:
                one_by_one.observe(server, latency)
                fold.add(server, latency)
                if window_closes:
                    deliver()
            deliver()
            expected = one_by_one.close_epoch()
            got = folded.close_epoch()
            for want, have in zip(expected, got):
                assert have.request_count == want.request_count
                if want.request_count:
                    assert have.mean_latency == pytest.approx(
                        want.mean_latency, rel=1e-12, abs=0.0
                    )
                else:
                    assert math.isnan(have.mean_latency)

    def test_drain_empties_the_fold(self):
        fold = ReportFold()
        fold.add("s0", 0.5)
        fold.add("s0", 0.25, count=2)
        assert fold.drain() == [
            {"op": "report", "server": "s0", "latency": pytest.approx(1.0 / 3), "count": 3}
        ]
        assert not fold and fold.drain() == []


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
