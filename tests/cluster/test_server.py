"""FileServer: FIFO service, heterogeneity, reporting, failure."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import CacheConfig, CacheModel, FileServer, MetadataRequest
from repro.cluster.server import land_moments
from repro.sim import Simulator


def req(fileset="/a", arrival=0.0, work=1.0):
    return MetadataRequest(fileset=fileset, arrival=arrival, work=work)


class TestService:
    def test_service_time_scales_with_power(self):
        """Paper §5.1: power-9 server is 9x faster than power-1."""
        latencies = {}
        for power in (1.0, 9.0):
            env = Simulator()
            server = FileServer(env, "s", power)
            r = req(work=9.0)
            server.submit(r)
            env.run()
            latencies[power] = r.latency
        assert latencies[1.0] == pytest.approx(9.0)
        assert latencies[9.0] == pytest.approx(1.0)

    def test_fifo_order_and_queueing_delay(self, env):
        server = FileServer(env, "s", power=1.0)
        rs = [req(work=2.0) for _ in range(3)]
        for r in rs:
            server.submit(r)
        env.run()
        assert [r.completion for r in rs] == [2.0, 4.0, 6.0]
        assert [r.service_start - r.arrival for r in rs] == [0.0, 2.0, 4.0]

    def test_requests_arriving_later_wait_correctly(self, env):
        server = FileServer(env, "s", power=2.0)
        server.submit(req(arrival=env.now, work=4.0))  # 2s service
        r2 = req(arrival=1.0, work=4.0)
        env.schedule_at(1.0, lambda: server.submit(r2))
        env.run()
        assert r2.completion == pytest.approx(4.0)  # waits until t=2
        assert r2.latency == pytest.approx(3.0)

    def test_busy_time_and_utilization(self, env):
        server = FileServer(env, "s", power=1.0)
        server.submit(req(work=3.0))
        env.run(until=10.0)
        assert server.busy_time == pytest.approx(3.0)
        assert server.utilization(10.0) == pytest.approx(0.3)

    def test_on_complete_hook(self, env):
        server = FileServer(env, "s", power=1.0)
        done = []
        r = req(work=1.0)
        r.on_complete = lambda rq: done.append(rq.completion)
        server.submit(r)
        env.run()
        assert done == [1.0]

    def test_bad_power_rejected(self, env):
        with pytest.raises(ValueError):
            FileServer(env, "s", power=0.0)


class TestReporting:
    def test_interval_report_means_window_only(self, env):
        server = FileServer(env, "s", power=1.0)
        server.submit(req(work=2.0))
        env.run(until=100.0)
        rep1 = server.interval_report()
        assert rep1.mean_latency == pytest.approx(2.0)
        assert rep1.request_count == 1
        # nothing in second window
        env.run(until=200.0)
        rep2 = server.interval_report()
        assert rep2.is_idle and math.isnan(rep2.mean_latency)
        assert rep2.idle_rounds == 1

    def test_prev_latency_propagates(self, env):
        server = FileServer(env, "s", power=1.0)
        server.submit(req(work=2.0))
        env.run(until=10.0)
        rep1 = server.interval_report()
        assert math.isnan(rep1.prev_mean_latency)
        server.submit(req(arrival=env.now, work=4.0))
        env.run(until=20.0)
        rep2 = server.interval_report()
        assert rep2.prev_mean_latency == pytest.approx(rep1.mean_latency)

    def test_idle_rounds_accumulate_and_reset(self, env):
        server = FileServer(env, "s", power=1.0)
        env.run(until=10.0)
        assert server.interval_report().idle_rounds == 1
        env.run(until=20.0)
        assert server.interval_report().idle_rounds == 2
        server.submit(req(arrival=env.now, work=1.0))
        env.run(until=30.0)
        assert server.interval_report().idle_rounds == 0

    def test_latency_series_records_each_window(self, env):
        server = FileServer(env, "s", power=1.0)
        for t in (10.0, 20.0, 30.0):
            env.run(until=t)
            server.interval_report()
        assert len(server.latency_series) == 3


class TestCacheIntegration:
    def test_cold_fileset_served_slower(self, env):
        cache = CacheModel(CacheConfig(cold_factor=2.0, warmup_time=100.0))
        server = FileServer(env, "t", power=1.0, cache=cache)
        cache.on_shed("/m", source="s", target="t", now=0.0, mean_request_work=1.0)
        r = req(fileset="/m", work=3.0)
        server.submit(r)
        env.run()
        assert r.latency == pytest.approx(6.0)  # 2x work

    def test_flush_blocks_queue(self, env):
        server = FileServer(env, "s", power=1.0)
        server.charge_flush(5.0)
        r = req(work=1.0)
        server.submit(r)
        env.run()
        assert r.completion == pytest.approx(6.0)


class TestFailure:
    def test_fail_drains_queue(self, env):
        server = FileServer(env, "s", power=1.0)
        for _ in range(3):
            server.submit(req(arrival=env.now, work=100.0))
        env.run(until=2.0)
        orphans = server.fail()
        assert len(orphans) == 2  # one was in service, lost
        assert server.failed

    def test_submit_to_failed_server_rejected(self, env):
        server = FileServer(env, "s", power=1.0)
        env.run(until=1.0)
        server.fail()
        with pytest.raises(RuntimeError):
            server.submit(req())

    def test_recover_resumes_service(self, env):
        server = FileServer(env, "s", power=1.0)
        env.run(until=1.0)
        server.fail()
        server.recover()
        r = req(arrival=env.now, work=2.0)
        server.submit(r)
        env.run()
        assert r.completion is not None
        assert r.latency == pytest.approx(2.0)

    def test_double_fail_rejected(self, env):
        server = FileServer(env, "s", power=1.0)
        env.run(until=1.0)
        server.fail()
        with pytest.raises(RuntimeError):
            server.fail()

    def test_recover_unfailed_rejected(self, env):
        server = FileServer(env, "s", power=1.0)
        with pytest.raises(RuntimeError):
            server.recover()


def _batch(slots, latencies, services):
    """One flush chunk's per-server columns, reduced the way the
    vectorized driver reduces them."""
    count = np.array([len(lat) for lat in latencies], dtype=np.int64)
    total = np.array([np.add.reduce(np.array(lat)) for lat in latencies])
    sq = np.array([np.add.reduce(np.array(lat) ** 2) for lat in latencies])
    mean = total / count
    m2 = sq - count * mean * mean
    m2 = np.where(m2 < 0.0, 0.0, m2)
    return (
        np.array(slots, dtype=np.int16),
        count,
        total,
        m2,
        np.array([min(lat) for lat in latencies]),
        np.array([max(lat) for lat in latencies]),
        np.array([np.add.reduce(np.array(svc)) for svc in services]),
    )


def _fresh_servers(k):
    servers = [FileServer(Simulator(), i, 1.0 + i) for i in range(k)]
    for server in servers:
        server.completed.forget_samples()
    return servers


_latency = st.floats(0.0, 500.0, allow_nan=False)


@st.composite
def _chunks(draw):
    """Servers, a prior state for some of them, and a chunk sequence in
    which servers may be absent from any chunk."""
    k = draw(st.integers(1, 7))
    chunks = []
    for _ in range(draw(st.integers(1, 6))):
        slots = sorted(draw(st.sets(st.integers(0, k - 1), min_size=1)))
        lats = [draw(st.lists(_latency, min_size=1, max_size=6)) for _ in slots]
        svcs = [draw(st.lists(_latency, min_size=len(lat), max_size=len(lat))) for lat in lats]
        chunks.append(_batch(slots, lats, svcs))
    primed = draw(st.sets(st.integers(0, k - 1)))
    return k, chunks, primed


class TestLandMoments:
    """The bulk landing equals one observe_moments merge per (chunk,
    server), in chunk order, bit for bit."""

    @staticmethod
    def _land_one_at_a_time(servers, batches):
        for slots, count, total, m2, lo, hi, busy in batches:
            for j, slot in enumerate(slots.tolist()):
                server = servers[slot]
                n, t = int(count[j]), float(total[j])
                server.completed.observe_moments(
                    n, t / n, float(m2[j]), float(lo[j]), float(hi[j])
                )
                server.busy_time += float(busy[j])
                server._window_latency_sum += t
                server._window_count += n

    @settings(max_examples=80, deadline=None)
    @given(_chunks())
    def test_matches_sequential_merges(self, drawn):
        k, batches, primed = drawn
        bulk, reference = _fresh_servers(k), _fresh_servers(k)
        # Some servers carry earlier state (the merge branch); the rest
        # are first touched mid-flush (the n == 0 branch).
        prior = [_batch([slot], [[1.5, 2.25, 0.125]], [[0.5]]) for slot in sorted(primed)]
        land_moments(bulk, prior)
        self._land_one_at_a_time(reference, prior)
        land_moments(bulk, batches)
        self._land_one_at_a_time(reference, batches)
        for got, want in zip(bulk, reference):
            g, w = got.completed, want.completed
            assert (g._n, g._mean, g._m2, g._min, g._max) == (
                w._n, w._mean, w._m2, w._min, w._max
            )
            assert type(g._n) is int and type(g._mean) is float
            assert got.completed_requests == want.completed_requests
            assert got.busy_time == want.busy_time
            assert got._window_latency_sum == want._window_latency_sum
            assert got._window_count == want._window_count

    def test_sample_keeping_tallies_are_refused(self):
        servers = [FileServer(Simulator(), 0, 1.0)]  # keeps samples
        with pytest.raises(ValueError, match="forget_samples"):
            land_moments(servers, [_batch([0], [[1.0]], [[1.0]])])
