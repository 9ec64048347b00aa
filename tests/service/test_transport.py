"""The frame transport against raw asyncio peers: partial reads, batched
segments, bad frames, EOF, timeouts and backpressure."""

from __future__ import annotations

import asyncio
import json
import struct

import pytest

from repro.service.client import FramedConnection
from repro.service.locator import LocatorService
from repro.service.protocol import FrameProtocol, ProtocolError, _Peer, encode_frame


def run(coro):
    return asyncio.run(coro)


async def raw_server(handler):
    """A bare asyncio stream server running ``handler(reader, writer)``
    and then closing the connection; returns ``(server, port)``."""

    async def serve(reader, writer):
        try:
            await handler(reader, writer)
        finally:
            writer.close()

    server = await asyncio.start_server(serve, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


async def read_request(reader: asyncio.StreamReader) -> dict:
    (length,) = struct.unpack(">I", await reader.readexactly(4))
    return json.loads(await reader.readexactly(length))


class Recorder(FrameProtocol):
    """Collects frames and the end-of-connection error."""

    def __init__(self) -> None:
        super().__init__()
        self.frames = []
        self.ended = asyncio.get_running_loop().create_future()

    def frame_received(self, message):
        self.frames.append(message)

    def frames_ended(self, error):
        self.ended.set_result(error)


class FakeTransport:
    def __init__(self) -> None:
        self.calls = []

    def pause_reading(self):
        self.calls.append("pause")

    def resume_reading(self):
        self.calls.append("resume")


class TestFramedConnectionReads:
    def test_reply_written_one_byte_at_a_time(self):
        async def handler(reader, writer):
            request = await read_request(reader)
            for byte in encode_frame({"id": request["id"], "echo": request["name"]}):
                writer.write(bytes([byte]))
                await writer.drain()
                await asyncio.sleep(0.001)

        async def scenario():
            server, port = await raw_server(handler)
            conn = await FramedConnection.open("127.0.0.1", port)
            reply = await conn.request({"op": "locate", "name": "/fs/1"}, timeout=5.0)
            assert reply["echo"] == "/fs/1"
            await conn.close()
            server.close()

        run(scenario())

    def test_several_frames_in_one_segment(self):
        async def handler(reader, writer):
            requests = [await read_request(reader) for _ in range(3)]
            # All three replies in one write, in reverse order.
            writer.write(
                b"".join(
                    encode_frame({"id": r["id"], "echo": r["name"]})
                    for r in reversed(requests)
                )
            )
            await writer.drain()

        async def scenario():
            server, port = await raw_server(handler)
            conn = await FramedConnection.open("127.0.0.1", port)
            replies = await asyncio.gather(
                *(conn.request({"name": f"/fs/{i}"}, timeout=5.0) for i in range(3))
            )
            assert [r["echo"] for r in replies] == ["/fs/0", "/fs/1", "/fs/2"]
            await conn.close()
            server.close()

        run(scenario())

    def test_bad_frame_fails_every_pending_request(self):
        async def handler(reader, writer):
            for _ in range(2):
                await read_request(reader)
            writer.write(struct.pack(">I", 3) + b"}{o")
            await writer.drain()

        async def scenario():
            server, port = await raw_server(handler)
            conn = await FramedConnection.open("127.0.0.1", port)
            results = await asyncio.gather(
                *(conn.request({"op": "map"}, timeout=5.0) for _ in range(2)),
                return_exceptions=True,
            )
            assert all(isinstance(r, ProtocolError) for r in results), results
            assert conn.closed
            with pytest.raises(ConnectionError):
                await conn.request({"op": "map"})
            server.close()

        run(scenario())

    def test_eof_inside_a_frame_fails_with_protocol_error(self):
        async def handler(reader, writer):
            request = await read_request(reader)
            writer.write(encode_frame({"id": request["id"], "ok": True})[:6])
            await writer.drain()

        async def scenario():
            server, port = await raw_server(handler)
            conn = await FramedConnection.open("127.0.0.1", port)
            with pytest.raises(ProtocolError, match="inside a frame"):
                await conn.request({"op": "map"}, timeout=5.0)
            server.close()

        run(scenario())

    def test_eof_between_frames_fails_pending_with_connection_error(self):
        async def handler(reader, writer):
            first = await read_request(reader)
            await read_request(reader)
            writer.write(encode_frame({"id": first["id"], "ok": True}))
            await writer.drain()

        async def scenario():
            server, port = await raw_server(handler)
            conn = await FramedConnection.open("127.0.0.1", port)
            answered, dropped = await asyncio.gather(
                conn.request({"op": "map"}, timeout=5.0),
                conn.request({"op": "map"}, timeout=5.0),
                return_exceptions=True,
            )
            assert answered == {"id": 0, "ok": True}
            assert isinstance(dropped, ConnectionError)
            assert not isinstance(dropped, ProtocolError)
            server.close()

        run(scenario())

    def test_timed_out_request_straggler_is_discarded(self):
        async def handler(reader, writer):
            late = await read_request(reader)
            fresh = await read_request(reader)
            # The straggler arrives first, then the reply that is awaited.
            writer.write(encode_frame({"id": late["id"], "who": "late"}))
            writer.write(encode_frame({"id": fresh["id"], "who": "fresh"}))
            await writer.drain()

        async def scenario():
            server, port = await raw_server(handler)
            conn = await FramedConnection.open("127.0.0.1", port)
            with pytest.raises(asyncio.TimeoutError):
                await conn.request({"op": "map"}, timeout=0.05)
            assert not conn.closed
            reply = await conn.request({"op": "map"}, timeout=5.0)
            assert reply["who"] == "fresh"
            assert conn._pending == {}
            await conn.close()
            server.close()

        run(scenario())


class TestFrameProtocolEnds:
    @pytest.mark.parametrize("cut, clean", [(0, True), (3, False), (9, False)])
    def test_close_between_frames_is_clean_inside_one_is_not(self, cut, clean):
        frames = encode_frame({"n": 1}) + encode_frame({"n": 2})
        tail = encode_frame({"n": 3})[:cut]

        async def handler(reader, writer):
            writer.write(frames + tail)
            await writer.drain()

        async def scenario():
            server, port = await raw_server(handler)
            _, recorder = await asyncio.get_running_loop().create_connection(
                Recorder, "127.0.0.1", port
            )
            error = await asyncio.wait_for(recorder.ended, 5.0)
            assert recorder.frames == [{"n": 1}, {"n": 2}]
            if clean:
                assert error is None
            else:
                assert isinstance(error, ProtocolError)
                assert f"({cut} bytes buffered)" in str(error)
            server.close()

        run(scenario())

    def test_bad_frame_aborts_the_server_side_connection(self):
        async def scenario():
            locator = LocatorService({"s0": 1.0}, {"s0": ("127.0.0.1", 9)}, epoch_seconds=60.0)
            host, port = await locator.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(struct.pack(">I", 3) + b"}{o")
                await writer.drain()
                try:
                    rest = await asyncio.wait_for(reader.read(), 5.0)
                except ConnectionResetError:
                    rest = b""
                assert rest == b""
                writer.close()
                # The listener still serves new connections.
                conn = await FramedConnection.open(host, port)
                reply = await conn.request({"op": "locate", "name": "/fs/1"}, timeout=5.0)
                assert reply["ok"] and reply["server"] == "s0"
                await conn.close()
            finally:
                await locator.stop()

        run(scenario())


class TestBackpressure:
    def test_server_side_pause_writing_pauses_reads(self):
        peer = _Peer(lambda peer, message: None, set())
        transport = FakeTransport()
        peer.connection_made(transport)
        peer.pause_writing()
        assert transport.calls == ["pause"]
        peer.resume_writing()
        assert transport.calls == ["pause", "resume"]

    def test_client_keeps_reading_replies_while_its_writes_back_up(self):
        """Replies are what drain a backed-up server; a client that paused
        them could deadlock against it."""

        async def scenario():
            conn = FramedConnection()
            transport = FakeTransport()
            conn.connection_made(transport)
            conn.pause_writing()
            conn.resume_writing()
            assert transport.calls == []

        run(scenario())
