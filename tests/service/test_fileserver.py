"""The echo file server: the FIFO clock and request validation."""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.service.client import FramedConnection
from repro.service.fileserver import EchoFileServer


def run(coro):
    return asyncio.run(coro)


class TestFifoClock:
    POWER = 4.0
    TIME_SCALE = 0.5
    WORK = 0.2
    K = 4

    @property
    def service(self) -> float:
        return self.WORK * self.TIME_SCALE / self.POWER

    def test_replies_in_send_order_no_earlier_than_the_fifo_law(self):
        async def scenario():
            server = EchoFileServer("s0", self.POWER, time_scale=self.TIME_SCALE)
            await server.start()
            conn = await FramedConnection.open(server.host, server.port)
            loop = asyncio.get_running_loop()
            done = []

            async def send(i, work):
                reply = await conn.request({"op": "exec", "name": f"/fs/{i}", "work": work}, timeout=5.0)
                done.append((reply["name"], loop.time()))

            first_sent = loop.time()
            # K requests of equal work, then a zero-work one behind them.
            await asyncio.gather(
                *(send(i, self.WORK) for i in range(self.K)), send(self.K, 0.0)
            )
            assert [name for name, _ in done] == [f"/fs/{i}" for i in range(self.K + 1)]
            for i, (_, at) in enumerate(done[: self.K]):
                assert at - first_sent >= (i + 1) * self.service - 1e-6
            # The zero-work request finished with the last of the K.
            assert done[self.K][1] - first_sent >= self.K * self.service - 1e-6
            assert server.completed == self.K + 1
            assert server.busy_time == pytest.approx(self.K * self.service)
            await conn.close()
            await server.stop()

        run(scenario())

    def test_idle_server_answers_zero_work_at_once(self):
        async def scenario():
            server = EchoFileServer("s0", 1.0)
            await server.start()
            conn = await FramedConnection.open(server.host, server.port)
            reply = await conn.request({"op": "exec", "name": "/fs/0", "work": 0}, timeout=5.0)
            assert reply == {"ok": True, "server": "s0", "service": 0.0, "name": "/fs/0", "id": 0}
            assert server._timer is None and not server._queue
            await conn.close()
            await server.stop()

        run(scenario())

    def test_kill_answers_nothing_queued(self):
        async def scenario():
            server = EchoFileServer("s0", self.POWER, time_scale=self.TIME_SCALE)
            await server.start()
            conn = await FramedConnection.open(server.host, server.port)
            pending = [
                asyncio.ensure_future(
                    conn.request({"op": "exec", "name": f"/fs/{i}", "work": 100.0}, timeout=5.0)
                )
                for i in range(self.K)
            ]
            while len(server._queue) < self.K:
                await asyncio.sleep(0.005)
            await server.kill()
            results = await asyncio.gather(*pending, return_exceptions=True)
            assert all(isinstance(r, ConnectionError) for r in results), results
            assert server.completed == 0 and server.busy_time == 0.0
            assert server._timer is None and not server._queue

        run(scenario())


class TestExecValidation:
    @pytest.mark.parametrize("work", [True, False, -1, "1", None, 1e308, 10**400])
    def test_bad_work_is_refused(self, work):
        async def scenario():
            # 1e308 · 10 / 0.5 overflows to inf: not a finite service time.
            server = EchoFileServer("s0", 0.5, time_scale=10.0)
            await server.start()
            conn = await FramedConnection.open(server.host, server.port)
            reply = await conn.request({"op": "exec", "name": "/fs/1", "work": work}, timeout=5.0)
            assert reply["ok"] is False and "bad work" in reply["error"]
            assert reply["id"] == 0
            assert server.completed == 0
            await conn.close()
            await server.stop()

        run(scenario())

    def test_infinite_work_frame_does_not_wedge_the_queue(self):
        async def scenario():
            server = EchoFileServer("s0", 1.0)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            payload = b'{"op":"exec","name":"/fs/1","work":Infinity,"id":1}'
            writer.write(struct.pack(">I", len(payload)) + payload)
            await writer.drain()
            # The bad frame kills its connection ...
            try:
                rest = await asyncio.wait_for(reader.read(), 5.0)
            except ConnectionResetError:
                rest = b""
            assert rest == b""
            writer.close()
            # ... and leaves nothing queued for the next client.
            conn = await FramedConnection.open(host, port)
            reply = await conn.request({"op": "exec", "name": "/fs/2", "work": 0.0}, timeout=1.0)
            assert reply["ok"]
            await conn.close()
            await server.stop()

        run(scenario())
