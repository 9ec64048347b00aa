"""Shared disks and the SAN data path.

"The shared disks hold file sets ... the client fetches data directly
from the disk across the storage area network (SAN). This architecture
separates metadata workload from data workload." (§3)

The paper explicitly scopes load management to the *file servers* —
"our system does not address load management issues in shared disks"
— so the data path here is a deliberately simple striped-disk model.
It exists for architectural completeness (the quickstart example walks
a full metadata-then-data access) and to let experiments confirm the
paper's motivation: clients blocked on metadata leave the SAN
under-utilized, so balancing the metadata tier lifts whole-cluster
throughput.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Sequence, Tuple

from ..sim import Simulator, Tally

__all__ = ["SharedDisk", "DiskArray"]


class SharedDisk:
    """One disk on the SAN: FIFO service at a fixed bandwidth.

    The same FIFO clock as :class:`~repro.cluster.server.FileServer`: a
    queue and one pending calendar entry per transfer.
    """

    def __init__(self, env: Simulator, disk_id: object, bandwidth: float) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
        self.env = env
        self.disk_id = disk_id
        #: Transfer rate in data units per second.
        self.bandwidth = float(bandwidth)
        #: Waiting transfers as ``(enqueued, size, done)``.
        self._queue: Deque[Tuple[float, float, Callable[[], None]]] = deque()
        #: The transfer in progress and its start, or ``None`` while idle.
        self._head = None
        self._start = 0.0
        #: Completed-transfer latencies.
        self.transfers = Tally()
        self.busy_time = 0.0

    def read(self, size: float, done: Callable[[], None]) -> None:
        """Read ``size`` data units; ``done()`` runs when the transfer ends."""
        transfer = (self.env.now, float(size), done)
        if self._head is None:
            self._transfer(transfer)
        else:
            self._queue.append(transfer)

    def _transfer(self, transfer: Tuple[float, float, Callable[[], None]]) -> None:
        now = self.env.now
        self._head = transfer
        self._start = now
        self.env.schedule_at(now + transfer[1] / self.bandwidth, self._transferred)

    def _transferred(self) -> None:
        now = self.env.now
        enqueued, size, done = self._head
        self.busy_time += now - self._start
        self.transfers.observe(now - enqueued)
        done()
        if self._queue:
            self._transfer(self._queue.popleft())
        else:
            self._head = None

    def utilization(self) -> float:
        """Fraction of elapsed time spent transferring."""
        return self.busy_time / self.env.now if self.env.now > 0 else 0.0


class DiskArray:
    """A stripe set of shared disks.

    Large reads are striped round-robin across member disks in
    ``stripe_unit``-sized chunks — the classic I/O-system load-balancing
    the related work contrasts with (§2: "I/O systems use striping to
    distribute a large I/O request across many disks").
    """

    def __init__(
        self, env: Simulator, bandwidths: Sequence[float], stripe_unit: float = 64.0
    ) -> None:
        if not bandwidths:
            raise ValueError("array needs at least one disk")
        if stripe_unit <= 0:
            raise ValueError(f"stripe_unit must be > 0, got {stripe_unit}")
        self.env = env
        self.stripe_unit = float(stripe_unit)
        self.disks: List[SharedDisk] = [
            SharedDisk(env, i, bw) for i, bw in enumerate(bandwidths)
        ]
        self._next = 0

    def read(self, size: float, done: Callable[[], None]) -> None:
        """Read ``size`` units striped over the disks; ``done()`` runs
        when the last stripe ends (at once for a zero-size read)."""
        stripes = []
        remaining = float(size)
        while remaining > 0:
            chunk = min(self.stripe_unit, remaining)
            stripes.append((self.disks[self._next % len(self.disks)], chunk))
            self._next += 1
            remaining -= chunk
        if not stripes:
            done()
            return
        left = len(stripes)

        def stripe_done() -> None:
            nonlocal left
            left -= 1
            if not left:
                done()

        for disk, chunk in stripes:
            disk.read(chunk, stripe_done)

    def utilization(self) -> List[float]:
        """Per-disk utilizations."""
        return [d.utilization() for d in self.disks]
