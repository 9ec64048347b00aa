"""The full metadata-then-data access path.

:class:`AccessClient` models the complete shared-disk access of §3:
metadata request to a file server, then a data transfer from the
shared disks. It is used by the quickstart example and the SAN
under-utilization demonstration, not by the paper's figure runs (which
measure the metadata tier only). The request-replay drivers and the
hardened client live in :mod:`repro.engine.client_path`.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim import Simulator, Tally
from .disk import DiskArray
from .request import MetadataRequest
from .server import FileServer

__all__ = ["AccessClient"]


class AccessClient:
    """A client performing complete accesses: metadata, then data.

    Each access: submit a metadata request to the routed file server,
    wait for its completion, then read ``data_size`` units from the
    disk array across the SAN. End-to-end access latencies land in
    :attr:`access_latency`; the share of each access spent blocked on
    metadata lands in :attr:`metadata_share` — the quantity behind the
    paper's motivation that "clients blocked on metadata may leave the
    high bandwidth SAN underutilized" (§3).

    The metadata phase has no retries: one locate, one submission, and
    an unroutable file set raises ``RuntimeError``. The access is a chain
    of callbacks: locate and submit, read when the metadata completes,
    book the latency when the last stripe lands.
    """

    def __init__(
        self,
        env: Simulator,
        route: Callable[[MetadataRequest], Optional[FileServer]],
        disks: DiskArray,
    ) -> None:
        self.env = env
        self.route = route
        self.disks = disks
        self.access_latency = Tally(keep=True)
        self.metadata_share = Tally()

    def access(self, fileset: str, meta_work: float, data_size: float) -> None:
        """Start one access. It is routed from a start hop, after every
        entry already due at this instant; an unroutable file set raises
        out of :meth:`~repro.sim.Simulator.run`."""
        env = self.env
        env.schedule_at(env.now, lambda: self._locate(fileset, meta_work, data_size))

    def _locate(self, fileset: str, meta_work: float, data_size: float) -> None:
        start = self.env.now
        request = MetadataRequest(fileset=fileset, arrival=start, work=meta_work)
        server = self.route(request)
        if server is None:
            raise RuntimeError(f"no server for file set {fileset!r}")
        request.on_complete = lambda req: self._read(start, data_size)
        server.submit(request)

    def _read(self, start: float, data_size: float) -> None:
        """The metadata is back: fetch the data across the SAN."""
        meta_done = self.env.now
        self.disks.read(data_size, lambda: self._finish(start, meta_done))

    def _finish(self, start: float, meta_done: float) -> None:
        total = self.env.now - start
        self.access_latency.observe(total)
        if total > 0:
            self.metadata_share.observe((meta_done - start) / total)
