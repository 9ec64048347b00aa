"""Lightweight echo "file servers" with power-scaled service times.

Each :class:`EchoFileServer` is one asyncio TCP listener standing in
for a metadata server of the paper's cluster. It does no real metadata
work — an ``exec`` request occupies the server for
``work * time_scale / power`` seconds, the same service-time law the
simulator's :class:`~repro.cluster.server.FileServer` charges, then
echoes back. The paper's heterogeneity lives entirely in ``power``: the
{1,3,5,7,9} line-up makes the weakest server nine times slower per unit
of work than the strongest, which is exactly the imbalance the
locator's tuning loop must discover from wall-clock latencies alone.

Service is FIFO, kept as one clock — the simulator's FIFO law written
directly: a request arriving at ``now`` finishes at
``max(now, previous finish) + service``. One finished on arrival is
answered at once; any other joins a queue whose head one timer serves,
so none overtakes another. Queueing delay builds up on overloaded
servers just as in the simulator; that signal is what the controller
feeds on.
"""

from __future__ import annotations

import asyncio
import collections
import math
from typing import Deque, Optional, Tuple

from .protocol import FrameServer

__all__ = ["EchoFileServer"]


class EchoFileServer:
    """One power-scaled echo server on a loopback TCP port.

    Parameters
    ----------
    server_id:
        The id the locator's layout knows this server by.
    power:
        Relative processing power; service time is
        ``work * time_scale / power``.
    time_scale:
        Seconds of service per work unit on a power-1 server.
    host:
        Bind address (loopback by default — this is a bench harness,
        not a daemon).
    """

    def __init__(
        self,
        server_id: str,
        power: float,
        time_scale: float = 1.0,
        host: str = "127.0.0.1",
    ) -> None:
        if power <= 0:
            raise ValueError(f"power must be > 0, got {power}")
        self.server_id = server_id
        self.power = float(power)
        self.time_scale = float(time_scale)
        self.host = host
        self.port: Optional[int] = None
        self._server: Optional[FrameServer] = None
        # The FIFO clock: when the last accepted request finishes, the
        # (finish, peer, reply) entries not yet answered, and the one
        # timer armed for the head.
        self._free_at = 0.0
        self._queue: Deque[tuple] = collections.deque()
        self._timer: Optional[asyncio.TimerHandle] = None
        self._killed = False
        #: Requests fully served (diagnostics; the bench cross-checks
        #: the sum against the clients' completion counters).
        self.completed = 0
        #: Total seconds spent in service.
        self.busy_time = 0.0

    # ------------------------------------------------------------------ #
    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError(f"server {self.server_id!r} already started")
        self._server = await FrameServer.open(self._on_frame, self.host, self.port or 0)
        self.port = self._server.port
        return self.host, self.port

    async def stop(self) -> None:
        """Stop listening, drop queued requests unanswered and every
        connection: peers blocked on a reply must see the transport die
        (that drives the hardened client's timeout/redirect path)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._queue.clear()
        if self._server is not None:
            await self._server.close()
            self._server = None

    async def kill(self) -> None:
        """Crash-stop: like :meth:`stop`, but refuse future requests.

        Mimics a server failure for the client-hardening tests — open
        connections drop mid-request, which is what drives the client's
        timeout/redirect path.
        """
        self._killed = True
        await self.stop()

    # ------------------------------------------------------------------ #
    def _on_frame(self, peer, message: dict) -> None:
        if self._killed:
            return  # a dead server answers nothing
        op = message.get("op")
        service = self._service_time(message.get("work")) if op == "exec" else None
        if service is not None:
            reply = {"ok": True, "server": self.server_id, "service": service, "name": message.get("name")}
        elif op == "exec":
            reply = {"ok": False, "error": f"bad work {message.get('work')!r}"}
        elif op == "ping":
            reply = {"ok": True, "server": self.server_id, "power": self.power}
        else:
            reply = {"ok": False, "error": f"unknown op {op!r}"}
        if "id" in message or not reply["ok"]:
            reply["id"] = message.get("id")
        if service is None:
            peer.send(reply)
            return
        loop = asyncio.get_running_loop()
        now = loop.time()
        self._free_at = finish = max(now, self._free_at) + service
        if finish <= now and not self._queue:
            self._answer(peer, reply)
        else:
            self._queue.append((finish, peer, reply))
            if self._timer is None:
                self._timer = loop.call_at(finish, self._serve_head)

    def _service_time(self, work) -> Optional[float]:
        """Seconds of service, or ``None`` unless ``work`` is a finite
        number >= 0 (a boolean is not)."""
        if isinstance(work, bool) or not isinstance(work, (int, float)):
            return None
        try:
            service = float(work) * self.time_scale / self.power
        except OverflowError:  # an int too large for a float
            return None
        return service if 0.0 <= service < math.inf else None

    def _serve_head(self) -> None:
        """Answer the head, and each request behind it already finished."""
        loop = asyncio.get_running_loop()
        now = loop.time()
        queue = self._queue
        while True:
            _, peer, reply = queue.popleft()
            self._answer(peer, reply)
            if not queue:
                self._timer = None
                return
            if queue[0][0] > now:
                break
        self._timer = loop.call_at(queue[0][0], self._serve_head)

    def _answer(self, peer, reply: dict) -> None:
        self.completed += 1
        self.busy_time += reply["service"]
        peer.send(reply)  # a peer already gone drops it; its client times out

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return (
            f"<EchoFileServer {self.server_id!r} power={self.power} "
            f"port={self.port} completed={self.completed}>"
        )
