"""The live client path: locate, execute, retry, redirect — on sockets.

The asyncio TCP twin of the simulator's hardened client
(:class:`repro.engine.client_path.HardenedClient`). Both follow the
retry, redirect and ledger rules of :mod:`repro.retry` — the same
:class:`~repro.retry.RetryPolicy`, :class:`~repro.retry.RequestLedger`
and :class:`~repro.retry.Attempts` — so the conservation and
classification invariants the chaos harness enforces in simulation are
checked, unchanged, against a real wire:

* every logical request re-**locates** through the locator before each
  attempt — a tuning round redirects the next retry automatically;
* a per-attempt **timeout** abandons dead servers; capped, seeded-
  jitter exponential **backoff** spaces the retries;
* the **ledger** accounts for every request:
  ``injected == completed + failed + in_flight``, always.

This module owns only the wire: LOCATE / EXEC over
:class:`FramedConnection`, plus caching and dropping server
connections. It imports nothing from the simulation engine. REPORT is
off the request path: a latency sample is folded per server
(:class:`ReportFold`), and the fold leaves as one id-less ``report``
frame per server per :data:`REPORT_WINDOW_S` window, so a request costs
two round trips, and a sample reaches the locator at most
:data:`REPORT_WINDOW_S` late (10 % of the smoke profile's 0.5 s epoch).

Connections are persistent and multiplexed: one
:class:`FramedConnection` per peer carries any number of concurrent
requests, matched to their replies by the protocol's ``id`` field —
a load generator never touches the ephemeral-port range per request.
Replies are dispatched inside the transport's receive callback and a
timeout is one timer handle: a round trip costs one future, no task.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from typing import Any, Dict, List, Optional, Tuple

from ..retry import Attempts, RequestLedger, RetryPolicy
from .protocol import FrameProtocol, ProtocolError

__all__ = [
    "REPORT_WINDOW_S",
    "FramedConnection",
    "HardenedServiceClient",
    "DriveOutcome",
    "ReportFold",
]

#: Longest a latency sample waits in the client before its report frame
#: leaves: the first sample after a quiet window goes at once, the rest
#: of a window's samples when it closes.
REPORT_WINDOW_S = 0.05


class FramedConnection(FrameProtocol):
    """One persistent, request-id-multiplexed protocol connection.

    Concurrent callers of :meth:`request` share the socket; each reply
    is handed to its caller by the echoed ``id`` as it is decoded. Any
    transport or protocol failure fails *every* pending request — a
    desynchronized frame stream cannot be trusted for any of them.
    """

    def __init__(self) -> None:
        super().__init__()
        self._loop = asyncio.get_running_loop()
        self._pending: Dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._closed = False

    @classmethod
    async def open(cls, host: str, port: int) -> "FramedConnection":
        """Connect to ``host:port``."""
        _, conn = await asyncio.get_running_loop().create_connection(cls, host, port)
        return conn

    def frame_received(self, message: Dict[str, Any]) -> None:
        future = self._pending.pop(message.get("id"), None)
        if future is not None and not future.done():
            future.set_result(message)

    def frames_ended(self, error: Optional[Exception]) -> None:
        self._closed = True
        pending, self._pending = self._pending, {}
        error = error or ConnectionResetError("connection closed")
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    @staticmethod
    def _time_out(future: asyncio.Future) -> None:
        if not future.done():
            future.set_exception(asyncio.TimeoutError())

    async def request(
        self, message: Dict[str, Any], timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Send ``message`` and await its reply (matched by ``id``).

        Raises :class:`ConnectionError` when the transport is gone and
        :class:`asyncio.TimeoutError` when the reply misses ``timeout``
        — in the latter case the request's slot is dropped, so a
        straggler reply is discarded instead of crossing wires.
        """
        if self._closed:
            raise ConnectionResetError("connection already closed")
        request_id = self._next_id
        self._next_id += 1
        future = self._loop.create_future()
        self._pending[request_id] = future
        timer = None
        try:
            self.send({**message, "id": request_id})
            if timeout is not None:
                timer = self._loop.call_later(timeout, self._time_out, future)
            return await future
        finally:
            if timer is not None:
                timer.cancel()
            self._pending.pop(request_id, None)

    async def close(self) -> None:
        """Tear the connection down; pending requests fail."""
        if self.transport is not None:
            self.transport.close()
        self.frames_ended(None)

    @property
    def closed(self) -> bool:
        return self._closed


class DriveOutcome:
    """What one logical request came to (the live MetadataRequest)."""

    __slots__ = ("fileset", "work", "server", "latency", "attempt_latency", "ok")

    def __init__(
        self,
        fileset: str,
        work: float,
        server: Optional[str],
        latency: float,
        attempt_latency: float,
        ok: bool,
    ) -> None:
        self.fileset = fileset
        self.work = work
        self.server = server
        self.latency = latency
        self.attempt_latency = attempt_latency
        self.ok = ok


class ReportFold:
    """Per-server ``(sum, count)`` of latency samples not yet reported.

    :meth:`drain` empties it into one ``report`` frame per server that
    carries the mean and the count, which
    :meth:`~repro.control.EpochBatcher.observe` weights back by the
    count: folding changes how many frames go out, not the sums.
    """

    def __init__(self) -> None:
        self._folds: Dict[str, List[float]] = {}

    def add(self, server: str, latency: float, count: int = 1) -> None:
        fold = self._folds.get(server)
        if fold is None:
            self._folds[server] = [latency * count, count]
        else:
            fold[0] += latency * count
            fold[1] += count

    def drain(self) -> List[Dict[str, Any]]:
        frames = [
            {"op": "report", "server": server, "latency": total / count, "count": count}
            for server, (total, count) in self._folds.items()
        ]
        self._folds.clear()
        return frames

    def __bool__(self) -> bool:
        return bool(self._folds)


class HardenedServiceClient(RequestLedger):
    """Drives logical requests through locator + echo servers.

    Parameters
    ----------
    locator:
        ``(host, port)`` of the :class:`~repro.service.locator.LocatorService`.
    policy:
        The shared :class:`~repro.retry.RetryPolicy` (defaults match
        the simulator's hardened path).
    rng:
        Seeded :class:`random.Random` for backoff jitter — live runs
        stay as reproducible as wall clocks allow.
    """

    def __init__(
        self,
        locator: Tuple[str, int],
        policy: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__()
        self.locator_address = locator
        self.policy = policy or RetryPolicy()
        self.rng = rng
        self._locator: Optional[FramedConnection] = None
        self._servers: Dict[str, FramedConnection] = {}
        self._fold = ReportFold()
        self._window: Optional[asyncio.TimerHandle] = None
        #: A report frame went out since the last ``close()`` barrier.
        self._unconfirmed = False

    # ------------------------------------------------------------------ #
    async def connect(self) -> None:
        """Open the locator connection (server connections open lazily)."""
        if self._locator is None or self._locator.closed:
            self._locator = await FramedConnection.open(*self.locator_address)

    async def close(self) -> None:
        """Flush the folded latency samples, then close every connection.

        The flush ends with one ``map`` round trip: the locator answers
        one connection's frames in order, so its reply proves that every
        report frame sent before it was handled.
        """
        if self._window is not None:
            self._window.cancel()
            self._window = None
        if self._locator is not None:
            self._flush()
            if self._unconfirmed:
                self._unconfirmed = False
                try:
                    await self._locator.request(
                        {"op": "map"}, timeout=self.policy.request_timeout
                    )
                except (OSError, ProtocolError, asyncio.TimeoutError):
                    pass
            await self._locator.close()
            self._locator = None
        for conn in list(self._servers.values()):
            await conn.close()
        self._servers.clear()

    # ------------------------------------------------------------------ #
    # the locator calls (bench/layers.py wraps both by name)
    # ------------------------------------------------------------------ #
    async def locate(self, name: str) -> Dict[str, Any]:
        """One LOCATE round trip (raises on transport failure)."""
        await self.connect()
        return await self._locator.request(
            {"op": "locate", "name": name}, timeout=self.policy.request_timeout
        )

    async def report(self, server: str, latency: float, count: int = 1) -> None:
        """Fold ``count`` samples of mean ``latency``; never waits on the wire.

        With no window open the fold leaves at once and a
        :data:`REPORT_WINDOW_S` window opens; samples folded inside it
        leave as one frame per server when it closes. Samples stay
        folded while the locator connection is down and go out with the
        first report after the next locate reconnects.
        """
        self._fold.add(server, latency, count)
        if self._window is None:
            self._send_fold()

    def _send_fold(self) -> None:
        """Send the fold and open a window; with nothing sent, none opens."""
        self._window = None
        if self._fold and self._flush():
            self._window = asyncio.get_running_loop().call_later(
                REPORT_WINDOW_S, self._send_fold
            )

    def _flush(self) -> bool:
        """Send every folded sample; ``False`` when there is no connection."""
        conn = self._locator
        if conn is None or conn.closed:
            return False
        for frame in self._fold.drain():
            conn.send(frame)
            self._unconfirmed = True
        return True

    # ------------------------------------------------------------------ #
    # the hardened drive loop
    # ------------------------------------------------------------------ #
    async def drive(self, name: str, work: float) -> DriveOutcome:
        """Drive one logical request to completion (or exhaustion).

        Locate, execute with a timeout, back off with jitter, re-locate,
        give up after ``max_attempts`` — the :class:`~repro.retry.Attempts`
        loop, on sockets. Measured latency spans the whole logical
        request — retries and backoffs included — exactly like the
        simulated hardened path charges its requests.

        The request sits in ``dispatching`` while locating/connecting,
        ``awaiting_service`` while an attempt is on the wire and
        ``backing_off`` during retry sleeps; every section returns it to
        ``dispatching`` on the way out, so the classification invariant
        holds at *every* await point and a cancelled drive unwinds to a
        plain failed request.
        """
        attempts = Attempts(self, self.policy, self.rng)
        t_start = time.monotonic()
        try:
            while attempts.next():
                target = await self._locate_target(name)
                if target is None:
                    await self._backoff(attempts)
                    continue
                server, host, port = target
                attempts.aim(server)
                conn = await self._server_connection(server, host, port)
                if conn is None:
                    await self._backoff(attempts)
                    continue
                attempts.send()
                attempt_start = time.monotonic()
                succeeded = False
                try:
                    reply = await conn.request(
                        {"op": "exec", "name": name, "work": work},
                        timeout=self.policy.request_timeout,
                    )
                    succeeded = bool(reply.get("ok"))
                except asyncio.TimeoutError:
                    attempts.timed_out()
                    await self._drop_server(server)
                except (ConnectionError, ProtocolError):
                    await self._drop_server(server)
                finally:
                    attempts.returned()
                if succeeded:
                    now = time.monotonic()
                    latency = now - t_start
                    attempt_latency = now - attempt_start
                    attempts.settle(latency)
                    await self.report(server, attempt_latency)
                    return DriveOutcome(name, work, server, latency, attempt_latency, True)
                await self._backoff(attempts)
            attempts.exhaust()
            return DriveOutcome(name, work, None, math.nan, math.nan, False)
        except asyncio.CancelledError:
            # A cancelled drive (harness shutdown) must not corrupt the
            # ledger: the backoff/exec sections returned the request to
            # ``dispatching`` on unwind, so account it as failed.
            if attempts.open:
                attempts.exhaust()
            raise

    async def _locate_target(self, name: str) -> Optional[Tuple[str, str, int]]:
        try:
            reply = await self.locate(name)
        except (OSError, ProtocolError, asyncio.TimeoutError):
            return None
        if not reply.get("ok"):
            return None
        server, host, port = reply.get("server"), reply.get("host"), reply.get("port")
        if not isinstance(server, str) or not isinstance(port, int):
            return None
        return server, host, port

    async def _server_connection(
        self, server: str, host: str, port: int
    ) -> Optional[FramedConnection]:
        conn = self._servers.get(server)
        if conn is not None and not conn.closed:
            return conn
        try:
            conn = await FramedConnection.open(host, port)
        except OSError:
            return None
        self._servers[server] = conn
        return conn

    async def _drop_server(self, server: str) -> None:
        conn = self._servers.pop(server, None)
        if conn is not None:
            await conn.close()

    async def _backoff(self, attempts: Attempts) -> None:
        delay = attempts.back_off()
        try:
            await asyncio.sleep(delay)
        finally:
            attempts.resume()
