"""EpochBatcher: wall-clock samples must fold into simulator-identical
report batches (same mean/nan convention, idle_rounds, prev-mean)."""

from __future__ import annotations

import math

import pytest

from repro.control import EpochBatcher
from repro.core.errors import ConfigurationError


class TestObserve:
    def test_untracked_server_rejected(self):
        batcher = EpochBatcher(["s0"])
        with pytest.raises(ConfigurationError, match="untracked server"):
            batcher.observe("s9", 0.1)

    def test_bad_count_rejected(self):
        batcher = EpochBatcher(["s0"])
        with pytest.raises(ConfigurationError, match="count must be >= 1"):
            batcher.observe("s0", 0.1, count=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_bad_latency_rejected(self, bad):
        batcher = EpochBatcher(["s0"])
        with pytest.raises(ConfigurationError, match="finite non-negative"):
            batcher.observe("s0", bad)

    def test_pending_counts_samples(self):
        batcher = EpochBatcher(["s0"])
        batcher.observe("s0", 0.1)
        batcher.observe("s0", 0.2, count=3)
        (report,) = batcher.close_epoch()
        assert report.request_count == 4


class TestCloseEpoch:
    def test_active_server_reports_weighted_mean(self):
        batcher = EpochBatcher(["s0"])
        batcher.observe("s0", 0.1, count=1)
        batcher.observe("s0", 0.4, count=3)
        (report,) = batcher.close_epoch(window=(0.0, 1.0))
        assert report.server_id == "s0"
        assert report.request_count == 4
        assert report.mean_latency == pytest.approx((0.1 + 0.4 * 3) / 4)
        assert report.idle_rounds == 0
        assert math.isnan(report.prev_mean_latency)
        assert report.window == (0.0, 1.0)

    def test_idle_server_reports_nan_and_counts_idle_rounds(self):
        batcher = EpochBatcher(["s0"])
        first = batcher.close_epoch()[0]
        second = batcher.close_epoch()[0]
        assert math.isnan(first.mean_latency) and first.idle_rounds == 1
        assert math.isnan(second.mean_latency) and second.idle_rounds == 2

    def test_activity_resets_idle_rounds(self):
        batcher = EpochBatcher(["s0"])
        batcher.close_epoch()
        batcher.observe("s0", 0.3)
        report = batcher.close_epoch()[0]
        assert report.idle_rounds == 0

    def test_prev_mean_carries_across_epochs(self):
        batcher = EpochBatcher(["s0"])
        batcher.observe("s0", 0.2)
        batcher.close_epoch()
        batcher.observe("s0", 0.6)
        report = batcher.close_epoch()[0]
        assert report.prev_mean_latency == pytest.approx(0.2)
        assert report.mean_latency == pytest.approx(0.6)

    def test_batch_covers_every_tracked_server(self):
        batcher = EpochBatcher(["s0", "s1", "s2"])
        batcher.observe("s1", 0.1)
        reports = batcher.close_epoch()
        assert [r.server_id for r in reports] == ["s0", "s1", "s2"]
        assert [r.request_count for r in reports] == [0, 1, 0]


class TestMembership:
    def test_track_and_forget(self):
        batcher = EpochBatcher(["s0"])
        batcher.track("s1")
        batcher.track("s1")  # idempotent
        assert [r.server_id for r in batcher.close_epoch()] == ["s0", "s1"]
        batcher.forget("s0")
        batcher.forget("s0")  # idempotent
        assert [r.server_id for r in batcher.close_epoch()] == ["s1"]

    def test_forgotten_server_drops_pending_samples(self):
        batcher = EpochBatcher(["s0", "s1"])
        batcher.observe("s0", 0.5)
        batcher.forget("s0")
        reports = batcher.close_epoch()
        assert [r.server_id for r in reports] == ["s1"]


class TestSimulatorParity:
    def test_mirrors_fileserver_interval_report(self, env):
        """Same observation sequence -> identical report fields."""
        from repro.cluster import FileServer, MetadataRequest

        server = FileServer(env, server_id="s0", power=2.0)
        batcher = EpochBatcher(["s0"])
        # Window 1: two completions, served FIFO at power 2 (latencies
        # 0.5 / 2 and (0.5 + 1.0) / 2).
        for work in (0.5, 1.0):
            server.submit(MetadataRequest(fileset="/a", arrival=0.0, work=work))
        env.run(until=1.0)
        assert server.completed.samples_view().tolist() == [0.25, 0.75]
        for latency in (0.25, 0.75):
            batcher.observe("s0", latency)
        sim = server.interval_report()
        live = batcher.close_epoch(window=(0.0, 1.0))[0]
        # Window 2: idle.
        env.run(until=2.0)
        sim2 = server.interval_report()
        live2 = batcher.close_epoch(window=(1.0, 2.0))[0]
        for a, b in ((sim, live), (sim2, live2)):
            assert a.server_id == b.server_id
            assert a.window == b.window
            assert a.request_count == b.request_count
            assert a.idle_rounds == b.idle_rounds
            assert (a.mean_latency == pytest.approx(b.mean_latency)) or (
                math.isnan(a.mean_latency) and math.isnan(b.mean_latency)
            )
            assert (
                a.prev_mean_latency == pytest.approx(b.prev_mean_latency)
            ) or (
                math.isnan(a.prev_mean_latency)
                and math.isnan(b.prev_mean_latency)
            )
