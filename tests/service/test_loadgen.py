"""Load-generator tests: schedule splitting and in-process replay."""

from __future__ import annotations

import asyncio

import pytest

from repro.service.config import ServiceConfig
from repro.service.fileserver import EchoFileServer
from repro.service.loadgen import make_schedule, run_clients, split_schedule
from repro.service.locator import LocatorService


def tiny_config(**overrides) -> ServiceConfig:
    defaults = dict(
        server_powers={"s0": 1.0, "s1": 3.0},
        epoch_seconds=0.4,
        duration_seconds=1.2,
        clients=2,
        n_filesets=8,
        target_requests=60,
        utilization=0.4,
        time_scale=0.02,
        seed=3,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestSchedule:
    def test_schedule_is_reproducible_and_bounded(self):
        config = tiny_config()
        first = make_schedule(config)
        second = make_schedule(config)
        assert [r.arrival for r in first.replay()] == [
            r.arrival for r in second.replay()
        ]
        assert all(0 <= r.arrival <= config.duration_seconds for r in first.replay())
        assert len(first) > 0

    def test_split_preserves_and_partitions_the_schedule(self):
        workload = make_schedule(tiny_config())
        slices = split_schedule(workload, 3)
        assert len(slices) == 3
        merged = sorted(
            (job for jobs in slices for job in jobs), key=lambda j: j[1]
        )
        original = [
            (r.fileset, float(r.arrival), float(r.work))
            for r in workload.replay()
        ]
        assert sorted(original, key=lambda j: j[1]) == merged
        # Each slice stays arrival-sorted (pacing relies on it).
        for jobs in slices:
            arrivals = [a for _, a, _ in jobs]
            assert arrivals == sorted(arrivals)

    def test_more_clients_than_requests_leaves_empty_slices(self):
        workload = make_schedule(tiny_config(target_requests=60))
        slices = split_schedule(workload, len(workload) + 5)
        assert sum(len(s) for s in slices) == len(workload)


class TestInlineReplay:
    def test_inline_run_accounts_for_every_request(self):
        config = tiny_config()

        async def scenario():
            servers = [
                EchoFileServer(sid, p, time_scale=config.time_scale)
                for sid, p in config.server_powers.items()
            ]
            addresses = {}
            for server in servers:
                addresses[server.server_id] = await server.start()
            locator = LocatorService(
                dict(config.server_powers),
                addresses,
                epoch_seconds=config.epoch_seconds,
                time_scale=config.time_scale,
            )
            import time as _time

            t0 = _time.monotonic()
            host, port = await locator.start(t0=t0)
            try:
                results = await run_clients(
                    config,
                    make_schedule(config),
                    (host, port),
                    t0,
                    processes=False,
                )
            finally:
                await locator.stop()
                for server in servers:
                    await server.stop()
            return results

        results = asyncio.run(scenario())
        assert len(results) == config.clients
        assert [r.client_index for r in results] == list(range(config.clients))
        total_injected = sum(r.injected for r in results)
        total_completed = sum(r.completed for r in results)
        assert total_injected == total_completed
        assert all(r.lost == 0 and r.conserved and r.classified for r in results)
        # Traces cover the whole schedule with measured latencies.
        traces = [t for r in results for t in r.traces]
        assert len(traces) == total_injected
        assert all(t.ok and t.latency > 0 for t in traces)
        assert all(t.server in config.server_powers for t in traces)
