"""The locator service: the ANU map behind a TCP socket.

This is the paper's delegate turned into a daemon. One asyncio server
owns the authoritative :class:`~repro.core.anu.ANUManager` and speaks
the :mod:`~repro.service.protocol` frame protocol; each frame is
handled and answered synchronously inside the transport's receive
callback:

``LOCATE name``
    Resolve (registering on first sight) a file set to its current
    server and that server's socket address. Placement changes take
    effect for the *next* locate — exactly the paper's semantics.
``REPORT server latency n``
    Fold ``n`` client-measured latency samples of mean ``latency`` into
    the open epoch's :class:`~repro.control.EpochBatcher` window. Clients
    send these off the request path, one id-less frame per server per
    :data:`~repro.service.client.REPORT_WINDOW_S` window, so a sample
    lands in the epoch that is open at most that long after it was taken.
``MAP``
    The current epoch, per-server region lengths, and membership —
    what a monitoring dashboard would poll.
``ADMIN join/leave/kill``
    Live membership: commission a new echo server into the layout,
    decommission one gracefully, or declare one crashed.

Every ``epoch_seconds`` the epoch loop closes the batcher window and
runs one real tuning round on the wall-clock reports; the exact report
batch and resulting region lengths are appended to the run's
:class:`~repro.service.recording.ServiceRecording` — the digital twin
replays that control timeline verbatim.

The event loop is single-threaded and every manager operation is
synchronous, so a request is handled atomically with respect to the
epoch loop — no locks, no torn tuning rounds.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, Optional, Tuple

from ..control import EpochBatcher, as_controller
from ..core.anu import ANUManager
from ..core.errors import ConfigurationError
from ..core.hashing import HashFamily
from .protocol import FrameServer
from .recording import EpochRecord, MembershipRecord, ServiceRecording

__all__ = ["LocatorService"]


class LocatorService:
    """The ANU placement map served over length-prefixed JSON frames.

    Parameters
    ----------
    server_powers:
        Initial membership: server id -> relative power. Powers are
        *recorded* for the twin but never shown to the controller —
        the tuning loop must discover heterogeneity from latencies
        (the paper's central claim).
    addresses:
        Server id -> ``(host, port)`` of the echo server carrying the
        id. Servers joining later announce theirs via ``ADMIN join``.
    epoch_seconds:
        Wall-clock tuning-epoch length.
    hash_seed:
        Seed of the shared :class:`~repro.core.hashing.HashFamily`; the
        twin must be built with the same seed.
    controller:
        Tuning rule (anything :func:`repro.control.as_controller`
        accepts); defaults to the paper's multiplicative rule.
    time_scale:
        Copied into the recording so the twin charges the same
        work -> seconds conversion the echo servers used.
    """

    def __init__(
        self,
        server_powers: Dict[str, float],
        addresses: Dict[str, Tuple[str, int]],
        epoch_seconds: float = 1.0,
        hash_seed: int = 0,
        controller: Optional[object] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        time_scale: float = 1.0,
    ) -> None:
        if epoch_seconds <= 0:
            raise ValueError(f"epoch_seconds must be > 0, got {epoch_seconds}")
        missing = set(server_powers) - set(addresses)
        if missing:
            raise ValueError(f"no address for servers: {sorted(missing)}")
        self.host = host
        self.port = port
        self.epoch_seconds = float(epoch_seconds)
        self.hash_seed = int(hash_seed)
        self.controller = as_controller(controller)
        self.manager = ANUManager(
            server_ids=list(server_powers),
            hash_family=HashFamily(seed=hash_seed),
            controller=self.controller,
        )
        self.batcher = EpochBatcher(list(server_powers))
        self.addresses: Dict[str, Tuple[str, int]] = dict(addresses)
        self.recording = ServiceRecording(
            server_powers=dict(server_powers),
            hash_seed=self.hash_seed,
            epoch_seconds=self.epoch_seconds,
            time_scale=float(time_scale),
            initial_servers=tuple(server_powers),
            initial_lengths={
                str(k): v for k, v in self.manager.lengths().items()
            },
        )
        self._server: Optional[FrameServer] = None
        self._epoch_task: Optional[asyncio.Task] = None
        self._t0: Optional[float] = None
        self._epoch_index = 0
        #: Request counters (diagnostics / bench cross-checks).
        self.locates = 0
        self.reports_received = 0
        self.samples_received = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self, t0: Optional[float] = None) -> Tuple[str, int]:
        """Bind, start serving, and start the epoch loop.

        ``t0`` is the run's wall-clock origin (``time.monotonic``
        timebase); the bench passes one shared origin so the locator's
        epoch windows line up with the load generators' pacing.
        """
        if self._server is not None:
            raise RuntimeError("locator already started")
        self._server = await FrameServer.open(self._on_frame, self.host, self.port or 0)
        self.port = self._server.port
        self._t0 = time.monotonic() if t0 is None else t0
        self._epoch_task = asyncio.ensure_future(self._epoch_loop())
        return self.host, self.port

    async def stop(self) -> None:
        """Stop the epoch loop, the listener and every open connection."""
        if self._epoch_task is not None:
            self._epoch_task.cancel()
            try:
                await self._epoch_task
            except asyncio.CancelledError:
                pass
            self._epoch_task = None
        if self._server is not None:
            await self._server.close()
            self._server = None

    @property
    def elapsed(self) -> float:
        """Seconds since the run origin."""
        if self._t0 is None:
            return 0.0
        return time.monotonic() - self._t0

    # ------------------------------------------------------------------ #
    # the epoch loop
    # ------------------------------------------------------------------ #
    async def _epoch_loop(self) -> None:
        while True:
            target = self._t0 + (self._epoch_index + 1) * self.epoch_seconds
            delay = target - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            self.close_epoch()

    def close_epoch(self) -> EpochRecord:
        """Close the open epoch and run one tuning round *now*.

        Public so tests (and the drain phase of the bench) can force a
        final round without waiting out the timer.
        """
        start = self._epoch_index * self.epoch_seconds
        end = (self._epoch_index + 1) * self.epoch_seconds
        self._epoch_index += 1
        reports = self.batcher.close_epoch(window=(start, end))
        rec = self.manager.tune(reports)
        record = EpochRecord(
            index=self._epoch_index,
            window=(start, end),
            reports=tuple(reports),
            average_latency=rec.average_latency,
            lengths_after={str(k): v for k, v in rec.lengths_after.items()},
            moved=rec.moved,
        )
        self.recording.events.append(record)
        return record

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    def _on_frame(self, peer, message: dict) -> None:
        peer.send(self.handle(message))

    def handle(self, message: dict) -> dict:
        """Process one request message; returns the reply message.

        Synchronous on purpose: every op is pure bookkeeping against
        in-memory state, and keeping the handler non-async guarantees a
        request is handled atomically w.r.t. the epoch loop.
        """
        op = message.get("op")
        try:
            if op == "locate":
                reply = self._op_locate(message)
            elif op == "report":
                reply = self._op_report(message)
            elif op == "map":
                reply = self._op_map()
            elif op == "admin":
                reply = self._op_admin(message)
            else:
                reply = {"ok": False, "error": f"unknown op {op!r}"}
        except (ConfigurationError, KeyError, ValueError) as exc:
            reply = {"ok": False, "error": str(exc)}
        if "id" in message:
            reply["id"] = message["id"]
        return reply

    def _op_locate(self, message: dict) -> dict:
        name = message.get("name")
        if not isinstance(name, str) or not name:
            return {"ok": False, "error": f"locate needs a name, got {name!r}"}
        self.locates += 1
        server = self.manager.register_fileset(name)
        address = self.addresses.get(server)
        if address is None:
            return {"ok": False, "error": f"server {server!r} has no address"}
        return {
            "ok": True,
            "name": name,
            "server": server,
            "host": address[0],
            "port": address[1],
            "epoch": self.manager.cache_epoch,
        }

    def _op_report(self, message: dict) -> dict:
        server = message.get("server")
        latency = message.get("latency")
        count = message.get("count", 1)
        if not isinstance(latency, (int, float)) or isinstance(latency, bool):
            return {"ok": False, "error": f"bad latency {latency!r}"}
        if not isinstance(count, int) or isinstance(count, bool):
            return {"ok": False, "error": f"bad count {count!r}"}
        self.batcher.observe(server, float(latency), count)
        self.reports_received += 1
        self.samples_received += count
        return {"ok": True}

    def _op_map(self) -> dict:
        lengths = {str(k): v for k, v in self.manager.lengths().items()}
        return {
            "ok": True,
            "epoch": self.manager.cache_epoch,
            "round": self.manager.round_index,
            "lengths": lengths,
            "servers": {
                sid: {"host": addr[0], "port": addr[1]}
                for sid, addr in self.addresses.items()
            },
            "filesets": len(self.manager.assignments),
        }

    def _op_admin(self, message: dict) -> dict:
        action = message.get("action")
        server = message.get("server")
        if not isinstance(server, str) or not server:
            return {"ok": False, "error": f"admin needs a server id, got {server!r}"}
        if action == "join":
            host, port, power = message.get("host"), message.get("port"), message.get("power")
            if not isinstance(host, str) or not isinstance(port, int):
                return {"ok": False, "error": "join needs host and port"}
            if not isinstance(power, (int, float)) or power <= 0:
                return {"ok": False, "error": f"join needs a positive power, got {power!r}"}
            rec = self.manager.add_server(server)
            self.addresses[server] = (host, port)
            self.batcher.track(server)
            self.recording.server_powers[server] = float(power)
        elif action in ("leave", "kill"):
            rec = (
                self.manager.remove_server(server)
                if action == "leave"
                else self.manager.fail_server(server)
            )
            self.addresses.pop(server, None)
            self.batcher.forget(server)
        else:
            return {"ok": False, "error": f"unknown admin action {action!r}"}
        self.recording.events.append(
            MembershipRecord(
                kind=action,
                server_id=server,
                time=self.elapsed,
                lengths_after={str(k): v for k, v in rec.lengths_after.items()},
            )
        )
        return {"ok": True, "moved": rec.moved, "epoch": self.manager.cache_epoch}

    # ------------------------------------------------------------------ #
    def convergence_epoch(self, movement_threshold: float = 0.02) -> Optional[int]:
        """First epoch after which per-epoch region movement stays small.

        Movement is the L1 distance between consecutive epochs' length
        vectors (lengths sum to 1/2, so 1.0 is "everything moved").
        Returns ``None`` when the run never settles.
        """
        trajectory = self.recording.live_trajectory()
        if not trajectory:
            return None
        settled_from: Optional[int] = None
        prev = trajectory[0]
        for i, lengths in enumerate(trajectory[1:], start=2):
            keys = set(prev) | set(lengths)
            move = sum(abs(lengths.get(k, 0.0) - prev.get(k, 0.0)) for k in keys)
            if move > movement_threshold:
                settled_from = None
            elif settled_from is None:
                settled_from = i
            prev = lengths
        return settled_from

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return (
            f"<LocatorService port={self.port} servers={len(self.addresses)} "
            f"epoch={self._epoch_index} locates={self.locates}>"
        )
