"""The locator wire protocol: length-prefixed JSON frames.

Every message on the wire is one *frame*: a 4-byte big-endian unsigned
length followed by exactly that many bytes of UTF-8 JSON encoding one
object. The format is deliberately boring — it survives partial reads,
needs no escaping, and a sans-io decoder (:class:`FrameDecoder`) can be
property-tested without sockets.

Requests (client -> locator)::

    {"op": "locate", "name": "/fs/0001"}
    {"op": "report", "server": "s0", "latency": 0.0123, "count": 4}
    {"op": "map"}
    {"op": "admin", "action": "join",  "server": "s5", "host": ..., "port": ..., "power": 3.0}
    {"op": "admin", "action": "leave", "server": "s5"}
    {"op": "admin", "action": "kill",  "server": "s5"}

Requests (client -> file server)::

    {"op": "exec", "name": "/fs/0001", "work": 0.8}

Every request may carry an ``"id"`` (any JSON scalar); the response
echoes it verbatim, which lets one connection multiplex concurrent
requests. Responses are ``{"ok": true, ...}`` or
``{"ok": false, "error": "..."}``.

Failure discipline: a malformed frame raises :class:`ProtocolError`
immediately — the decoder never blocks on garbage, never yields a
partial object, and never resynchronises silently (a desynchronized
length prefix would misparse every subsequent frame, so the connection
must be torn down). Non-finite numbers are not JSON: refused both ways.

Transport: every endpoint (locator, echo server, client) is a
:class:`FrameProtocol` — the decoder behind an asyncio callback
transport, with no task or coroutine per connection or message.
"""

from __future__ import annotations

import asyncio
import json
import math
import struct
from typing import Any, Callable, Dict, List, Optional, Set

__all__ = [
    "MAX_FRAME",
    "ProtocolError",
    "encode_frame",
    "decode_payload",
    "FrameDecoder",
    "FrameProtocol",
    "FrameServer",
]

#: Hard cap on one frame's payload. Locator messages are tens to a few
#: hundred bytes; anything near this bound is a desynchronized stream
#: or an attack, and must kill the connection rather than allocate.
MAX_FRAME = 1 << 20

_LEN = struct.Struct(">I")

#: Bytes one socket read may fill; a longer frame takes more reads.
READ_SIZE = 4 * 1024


class ProtocolError(ValueError):
    """A frame or message that violates the wire contract."""


def _finite(token: str) -> float:
    """``NaN``, ``Infinity`` or a literal that overflows a float: refused."""
    value = float(token)
    if not math.isfinite(value):
        raise ProtocolError(f"non-finite number {token} on the wire")
    return value


# One codec for the module: ``json.dumps`` / ``json.loads`` with
# non-default arguments build a new encoder or decoder on every call.
_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False, allow_nan=False)
_DECODER = json.JSONDecoder(parse_constant=_finite, parse_float=_finite)


def encode_frame(message: Dict[str, Any]) -> bytes:
    """One message as its on-the-wire frame (length prefix + JSON)."""
    if not isinstance(message, dict):
        raise ProtocolError(
            f"messages are JSON objects, got {type(message).__name__}"
        )
    try:
        payload = _ENCODER.encode(message).encode("utf-8")
    except ValueError as exc:
        raise ProtocolError(f"unencodable message: {exc}") from None
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME={MAX_FRAME}"
        )
    return _LEN.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> Dict[str, Any]:
    """One frame's payload bytes back into a message object."""
    try:
        message = _DECODER.decode(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    return message


class FrameDecoder:
    """Incremental, sans-io frame decoder.

    Feed arbitrary byte chunks with :meth:`feed`; complete messages come
    back in order. Bytes of an incomplete frame are buffered until the
    rest arrives — the decoder never yields a partial message and never
    raises on a merely *incomplete* frame, only on an *invalid* one
    (oversized length prefix, undecodable payload). After an error the
    decoder is poisoned: the stream cannot be trusted past a bad frame,
    so every later feed re-raises.
    """

    def __init__(self, max_frame: int = MAX_FRAME) -> None:
        self.max_frame = max_frame
        self._buffer = bytearray()
        self._error: Optional[ProtocolError] = None

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Absorb ``data``; return every message completed by it."""
        if self._error is not None:
            raise self._error
        buffer = self._buffer
        buffer += data
        messages: List[Dict[str, Any]] = []
        start = 0
        try:
            while len(buffer) - start >= _LEN.size:
                (length,) = _LEN.unpack_from(buffer, start)
                if length > self.max_frame:
                    raise ProtocolError(
                        f"frame length {length} exceeds max_frame={self.max_frame}"
                    )
                end = start + _LEN.size + length
                if len(buffer) < end:
                    break
                messages.append(decode_payload(buffer[start + _LEN.size : end]))
                start = end
        except ProtocolError as exc:
            self._error = exc
            raise
        del buffer[:start]
        return messages

    @property
    def buffered(self) -> int:
        """Bytes held back waiting for the rest of a frame."""
        return len(self._buffer)

    @property
    def poisoned(self) -> bool:
        """``True`` once a bad frame has been seen (stream is dead)."""
        return self._error is not None


class FrameProtocol(asyncio.BufferedProtocol):
    """One framed connection: :class:`FrameDecoder` behind a callback
    transport.

    Reads land in a buffer the connection owns (a plain ``Protocol``
    costs a fresh 256 KiB ``bytes`` per read). ``data_received`` hands
    each complete message to the subclass's :meth:`frame_received`; a
    bad frame aborts the transport. The subclass's :meth:`frames_ended`
    runs once at the end: with ``None`` after a close between frames, a
    :class:`ProtocolError` after a bad frame or a close inside one, else
    the transport's exception.
    """

    transport: Optional[asyncio.Transport] = None

    def __init__(self) -> None:
        self.decoder = FrameDecoder()
        self._error: Optional[ProtocolError] = None
        self._inbox = memoryview(bytearray(READ_SIZE))

    def send(self, message: Dict[str, Any]) -> None:
        """Write one message; a closing transport drops it."""
        if not self.transport.is_closing():
            self.transport.write(encode_frame(message))

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._inbox

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(self._inbox[:nbytes])

    def data_received(self, data: bytes) -> None:
        try:
            messages = self.decoder.feed(data)
        except ProtocolError as exc:
            self._error = exc
            self.transport.abort()
            return
        for message in messages:
            self.frame_received(message)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        error = self._error or exc
        if error is None and self.decoder.buffered:
            error = ProtocolError(
                f"connection closed inside a frame ({self.decoder.buffered} bytes buffered)"
            )
        self.frames_ended(error)


class _Peer(FrameProtocol):
    """The server end of one :class:`FrameServer` connection. Over the
    write high-water mark it stops reading (what ``await drain()`` gave a
    stream); a client keeps reading, as replies drain a backed-up server.
    """

    def __init__(self, on_frame: Callable, peers: Set["_Peer"]) -> None:
        super().__init__()
        self.on_frame = on_frame
        self.peers = peers

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        super().connection_made(transport)
        self.peers.add(self)

    def frame_received(self, message: Dict[str, Any]) -> None:
        self.on_frame(self, message)

    def frames_ended(self, error: Optional[Exception]) -> None:
        self.peers.discard(self)

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()


class FrameServer:
    """A listener handing each message to ``on_frame(peer, message)``,
    which answers with ``peer.send(reply)``, now or later. :meth:`close`
    also drops the open connections, which ``Server.close`` does not.
    """

    def __init__(self, server: asyncio.AbstractServer, peers: Set[_Peer]) -> None:
        self._server = server
        self._peers = peers
        self.port: int = server.sockets[0].getsockname()[1]

    @classmethod
    async def open(cls, on_frame: Callable, host: str, port: int) -> "FrameServer":
        peers: Set[_Peer] = set()
        server = await asyncio.get_running_loop().create_server(
            lambda: _Peer(on_frame, peers), host, port
        )
        return cls(server, peers)

    async def close(self) -> None:
        for peer in list(self._peers):
            peer.transport.close()
        self._peers.clear()
        self._server.close()
        await self._server.wait_closed()
