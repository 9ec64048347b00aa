"""Shared disks, striping, the request driver, and the access client."""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.cluster import (
    AccessClient,
    DiskArray,
    FileServer,
    MetadataRequest,
    SharedDisk,
)
from repro.engine import RequestDriver
from repro.sim import Simulator


class TestSharedDisk:
    def test_read_takes_size_over_bandwidth(self, env):
        disk = SharedDisk(env, 0, bandwidth=10.0)
        done = []
        disk.read(50.0, lambda: done.append(env.now))
        env.run()
        assert done == [5.0]

    def test_fifo_queueing(self, env):
        disk = SharedDisk(env, 0, bandwidth=1.0)
        times = []
        disk.read(2.0, lambda: times.append(env.now))
        disk.read(3.0, lambda: times.append(env.now))
        env.run()
        assert times == [2.0, 5.0]

    def test_utilization(self, env):
        disk = SharedDisk(env, 0, bandwidth=1.0)
        disk.read(4.0, lambda: None)
        env.run(until=10.0)
        assert disk.utilization() == pytest.approx(0.4)

    def test_bad_bandwidth(self, env):
        with pytest.raises(ValueError):
            SharedDisk(env, 0, bandwidth=0.0)


def _san_run_digest() -> str:
    """Digest of a seeded metadata-then-data run over two servers and a
    three-disk stripe set: every access latency, and each disk's transfer
    tally and busy time, as exact float reprs.

    Arrivals are rounded to 0.1 s, so some accesses land on the same
    instant and queue behind each other at the same disk.
    """
    env = Simulator()
    rng = random.Random(7)
    servers = [FileServer(env, 0, power=2.0), FileServer(env, 1, power=5.0)]
    disks = DiskArray(env, bandwidths=[10.0, 20.0, 40.0], stripe_unit=16.0)
    client = AccessClient(
        env, route=lambda r: servers[int(r.fileset[4:]) % 2], disks=disks
    )
    accesses = sorted(
        (round(rng.uniform(0.0, 60.0), 1), rng.uniform(0.1, 2.0), rng.uniform(1.0, 100.0))
        for _ in range(300)
    )

    def launch(i: int) -> None:
        """Start every access due at this instant; schedule the next."""
        while i < len(accesses):
            at, meta_work, size = accesses[i]
            if at > env.now:
                env.schedule_at(env.now + (at - env.now), lambda: launch(i))
                return
            client.access(f"/fs/{int(size) % 7}", meta_work=meta_work, data_size=size)
            i += 1

    env.schedule_at(0.0, lambda: launch(0))
    env.run()
    h = hashlib.sha256(client.access_latency.samples.tobytes())
    for disk in disks.disks:
        tally = disk.transfers
        h.update(repr((tally.count, tally.mean, tally.maximum, disk.busy_time)).encode())
    return h.hexdigest()


class TestSanLatencies:
    #: Recorded on the generator-and-Store disk loop this FIFO replaced.
    DIGEST = "1156cc6f1696627b7f50ebe762887e8aa194d4a277404e684ffee1efc8df8871"

    def test_latencies_match_the_generator_disk(self):
        assert _san_run_digest() == self.DIGEST


class TestDiskArray:
    def test_striping_parallelizes(self, env):
        """A large read striped over 4 disks finishes ~4x faster."""
        array = DiskArray(env, bandwidths=[10.0] * 4, stripe_unit=25.0)
        done = []
        array.read(100.0, lambda: done.append(env.now))
        env.run()
        assert done == [2.5]  # 25 units per disk at bw 10

    def test_round_robin_balances(self, env):
        array = DiskArray(env, bandwidths=[1.0] * 3, stripe_unit=1.0)
        array.read(9.0, lambda: None)
        env.run()
        utils = array.utilization()
        assert max(utils) == pytest.approx(min(utils))

    def test_zero_size_read_completes_at_once(self, env):
        array = DiskArray(env, bandwidths=[10.0] * 2, stripe_unit=25.0)
        env.run(until=3.0)
        done = []
        array.read(0.0, lambda: done.append(env.now))
        assert done == [3.0]
        assert env.events_processed == 0  # no transfer was scheduled

    def test_validation(self, env):
        with pytest.raises(ValueError):
            DiskArray(env, bandwidths=[])
        with pytest.raises(ValueError):
            DiskArray(env, bandwidths=[1.0], stripe_unit=0.0)


class TestRequestDriver:
    def test_replays_in_order_and_counts(self, env):
        server = FileServer(env, "s", power=100.0)
        schedule = [
            MetadataRequest("/a", arrival=float(t), work=1.0) for t in range(5)
        ]
        driver = RequestDriver(env, schedule, locate=lambda fileset: "s", servers={"s": server})
        env.run()
        assert driver.submitted == 5
        assert server.completed_requests == 5

    def test_unsorted_schedule_rejected(self, env):
        schedule = [
            MetadataRequest("/a", arrival=2.0, work=1.0),
            MetadataRequest("/a", arrival=1.0, work=1.0),
        ]
        RequestDriver(env, schedule, locate=lambda fileset: None)
        with pytest.raises(ValueError):
            env.run()

    def test_route_none_drops(self, env):
        schedule = [MetadataRequest("/a", arrival=0.0, work=1.0)]
        driver = RequestDriver(env, schedule, locate=lambda fileset: None)
        env.run()
        assert driver.dropped == 1 and driver.submitted == 0

    def test_same_time_arrivals_share_one_calendar_entry(self, env):
        """One event per distinct arrival instant, none to start or finish."""
        schedule = [
            MetadataRequest("/a", arrival=t, work=1.0) for t in (1.0, 1.0, 1.0, 2.5, 2.5)
        ]
        driver = RequestDriver(env, schedule, locate=lambda fileset: None)
        env.run()
        assert driver.dropped == 5
        assert env.events_processed == 2

    def test_routing_sees_arrival_time_state(self, env):
        """Routing decisions are taken at each request's arrival."""
        s1 = FileServer(env, 1, power=100.0)
        s2 = FileServer(env, 2, power=100.0)
        flip_at = 5.0
        locate = lambda fileset: 2 if env.now >= flip_at else 1
        schedule = [
            MetadataRequest("/a", arrival=float(t), work=0.1) for t in range(10)
        ]
        RequestDriver(env, schedule, locate, servers={1: s1, 2: s2})
        env.run()
        assert s1.completed_requests == 5
        assert s2.completed_requests == 5


class TestAccessClient:
    def test_full_access_path(self, env):
        server = FileServer(env, "s", power=2.0)
        disks = DiskArray(env, bandwidths=[10.0, 10.0], stripe_unit=50.0)
        client = AccessClient(env, route=lambda r: server, disks=disks)
        client.access("/data", meta_work=2.0, data_size=100.0)
        env.run()
        # metadata 1.0s (work 2 / power 2) + data 5.0s (50 per disk @ 10)
        assert client.access_latency.count == 1
        assert client.access_latency.mean == pytest.approx(6.0)
        assert client.metadata_share.mean == pytest.approx(1.0 / 6.0)

    def test_metadata_blocking_underutilizes_san(self, env):
        """The §3 motivation: a slow metadata tier starves the disks."""
        slow = FileServer(env, "s", power=0.1)
        fast_disks = DiskArray(env, bandwidths=[1000.0], stripe_unit=1000.0)
        client = AccessClient(env, route=lambda r: slow, disks=fast_disks)
        for _ in range(3):
            client.access("/d", meta_work=1.0, data_size=10.0)
        env.run()
        assert client.metadata_share.mean > 0.9
        assert fast_disks.utilization()[0] < 0.01

    def test_unroutable_raises(self, env):
        """The metadata phase has no retries: no owner is an error."""
        disks = DiskArray(env, bandwidths=[10.0], stripe_unit=10.0)
        client = AccessClient(env, route=lambda r: None, disks=disks)
        client.access("/fs/0", meta_work=1.0, data_size=1.0)
        with pytest.raises(RuntimeError, match="no server for file set"):
            env.run(until=1.0)
