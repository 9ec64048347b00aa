"""Synthetic and trace-shaped workload generators + calibration."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.cluster import FileSetCatalog
from repro.workloads import (
    ScaleConfig,
    SyntheticConfig,
    TraceConfig,
    Workload,
    generate_scale,
    generate_synthetic,
    generate_trace_shaped,
    offered_utilization,
    request_work_for_utilization,
    scaling_factor_c,
    weakest_server_overloaded,
)


class TestSyntheticGenerator:
    def test_paper_scale_aggregates(self):
        wl = generate_synthetic(SyntheticConfig(), seed=0)
        # "66,401 requests against 50 file sets in ... two hundred minutes"
        assert len(wl.catalog) == 50
        assert abs(len(wl) - 66_401) < 300  # rounding of per-set budgets
        assert wl.duration == 12_000.0
        assert (wl.arrivals < wl.duration).all()

    def test_utilization_calibrated(self):
        cfg = SyntheticConfig(utilization=0.6, total_capacity=25.0)
        wl = generate_synthetic(cfg, seed=0)
        assert offered_utilization(wl, 25.0) == pytest.approx(0.6, rel=0.02)

    def test_deterministic_in_seed(self):
        a = generate_synthetic(SyntheticConfig(n_filesets=5, target_requests=500), seed=9)
        b = generate_synthetic(SyntheticConfig(n_filesets=5, target_requests=500), seed=9)
        assert len(a) == len(b)
        assert all(
            ra.arrival == rb.arrival and ra.fileset == rb.fileset
            for ra, rb in zip(a.replay(), b.replay())
        )

    def test_different_seeds_differ(self):
        a = generate_synthetic(SyntheticConfig(n_filesets=5, target_requests=500), seed=1)
        b = generate_synthetic(SyntheticConfig(n_filesets=5, target_requests=500), seed=2)
        assert any(ra.arrival != rb.arrival for ra, rb in zip(a.replay(), b.replay()))

    def test_fileset_sizes_follow_x_weights(self):
        """Request budget per file set spans roughly the X ~ U[1,10] range."""
        wl = generate_synthetic(SyntheticConfig(), seed=0)
        counts = sorted(fs.n_requests for fs in wl.catalog)
        assert counts[-1] / counts[0] > 3  # spread consistent with [1,10]

    def test_weakest_server_would_overload_uniformly(self):
        """The Figure 5 premise: uniform placement kills server 0."""
        wl = generate_synthetic(SyntheticConfig(), seed=0)
        assert weakest_server_overloaded(wl, weakest_power=1.0, uniform_share=0.2)

    def test_requests_sorted(self):
        wl = generate_synthetic(SyntheticConfig(n_filesets=5, target_requests=300), seed=0)
        arr = [r.arrival for r in wl.replay()]
        assert arr == sorted(arr)

    def test_catalog_totals_match_requests(self):
        wl = generate_synthetic(SyntheticConfig(n_filesets=8, target_requests=400), seed=0)
        by_fs = {}
        for r in wl.replay():
            by_fs[r.fileset] = by_fs.get(r.fileset, 0.0) + r.work
        for fs in wl.catalog:
            assert by_fs[fs.name] == pytest.approx(fs.total_work)

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(n_filesets=0)
        with pytest.raises(ValueError):
            SyntheticConfig(n_filesets=10, target_requests=5)
        with pytest.raises(ValueError):
            SyntheticConfig(x_low=5.0, x_high=1.0)


class TestScaleGenerator:
    CFG = ScaleConfig(n_filesets=500, target_requests=20_000, duration=60.0)

    @pytest.fixture(scope="class")
    def wl(self):
        return generate_scale(self.CFG, seed=7)

    def test_request_count_exact(self, wl):
        assert len(wl) == self.CFG.target_requests
        assert sum(fs.n_requests for fs in wl.catalog) == self.CFG.target_requests
        assert len(wl.catalog) == self.CFG.n_filesets

    def test_catalog_totals_are_bincounts(self, wl):
        m = self.CFG.n_filesets
        np.testing.assert_array_equal(
            [fs.n_requests for fs in wl.catalog], np.bincount(wl.fs_idx, minlength=m)
        )
        np.testing.assert_array_equal(
            [fs.total_work for fs in wl.catalog],
            np.bincount(wl.fs_idx, weights=wl.works, minlength=m),
        )

    def test_fs_idx_int32_in_range(self, wl):
        assert wl.fs_idx.dtype == np.int32
        assert wl.fs_idx.min() >= 0
        assert wl.fs_idx.max() < self.CFG.n_filesets

    def test_deterministic_in_seed(self, wl):
        again = generate_scale(self.CFG, seed=7)
        for col in ("arrivals", "works", "fs_idx"):
            np.testing.assert_array_equal(getattr(again, col), getattr(wl, col))

    def test_schedule_digest_pinned(self, wl):
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(wl.arrivals).tobytes())
        h.update(np.ascontiguousarray(wl.works).tobytes())
        h.update(np.ascontiguousarray(wl.fs_idx, dtype=np.int64).tobytes())
        assert h.hexdigest() == (
            "b5270723b5a245cc07365ada2b385abf186548108053d61d4a62c9fa6d604663"
        )


class TestTraceGenerator:
    def test_paper_aggregates(self):
        wl = generate_trace_shaped(TraceConfig(), seed=0)
        # "21 file sets and 112,590 requests" over one hour
        assert len(wl.catalog) == 21
        assert abs(len(wl) - 112_590) < 300
        assert wl.duration == 3_600.0

    def test_zipf_skew_present(self):
        wl = generate_trace_shaped(TraceConfig(), seed=0)
        counts = sorted((fs.n_requests for fs in wl.catalog), reverse=True)
        # hot subtree dominates: top set >> median set
        assert counts[0] > 4 * counts[len(counts) // 2]

    def test_deterministic(self):
        cfg = TraceConfig(n_filesets=5, target_requests=1000)
        a = generate_trace_shaped(cfg, seed=3)
        b = generate_trace_shaped(cfg, seed=3)
        assert [r.arrival for r in list(a.replay())[:50]] == [
            r.arrival for r in list(b.replay())[:50]
        ]


class TestWorkloadOracle:
    def test_work_between_sums_to_total(self):
        wl = generate_synthetic(SyntheticConfig(n_filesets=6, target_requests=600), seed=0)
        full = wl.work_between(0.0, wl.duration + 1.0)
        assert sum(full.values()) == pytest.approx(wl.total_work)

    def test_work_between_window_additivity(self):
        wl = generate_synthetic(SyntheticConfig(n_filesets=6, target_requests=600), seed=0)
        mid = wl.duration / 2
        a = wl.work_between(0.0, mid)
        b = wl.work_between(mid, wl.duration + 1.0)
        for name in wl.catalog.names:
            assert a[name] + b[name] == pytest.approx(
                wl.work_between(0.0, wl.duration + 1.0)[name]
            )


class TestWorkloadColumns:
    @staticmethod
    def make(arrivals, duration=3.0):
        return Workload(
            "w",
            FileSetCatalog(["/a", "/b"], [3.0, 3.0], [2, 2]),
            arrivals=arrivals,
            works=[1.0, 1.0, 2.0, 2.0],
            fs_idx=[0, 0, 1, 1],
            duration=duration,
        )

    def test_columns_sorted_stably_by_arrival(self):
        wl = self.make([2.0, 1.0, 2.0, 1.0])
        assert wl.arrivals.tolist() == [1.0, 1.0, 2.0, 2.0]
        assert wl.works.tolist() == [1.0, 2.0, 1.0, 2.0]
        assert wl.fs_idx.tolist() == [0, 1, 0, 1]
        assert wl.fs_idx.dtype == np.int32
        assert [(r.fileset, r.arrival, r.work) for r in wl.replay()] == [
            ("/a", 1.0, 1.0), ("/b", 1.0, 2.0), ("/a", 2.0, 1.0), ("/b", 2.0, 2.0)
        ]

    @pytest.mark.parametrize("duration", [0.0, -1.0, math.nan, math.inf])
    def test_bad_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="duration"):
            self.make([0.0, 1.0, 2.0, 3.0], duration=duration)

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            self.make([0.0, 1.0, 2.0])


class TestCalibrate:
    def test_request_work_formula(self):
        w = request_work_for_utilization(1000, 100.0, 25.0, 0.5)
        assert 1000 * w / (100.0 * 25.0) == pytest.approx(0.5)

    def test_scaling_factor(self):
        assert scaling_factor_c(total_work=550.0, sum_x=275.0) == 2.0

    @pytest.mark.parametrize(
        "args",
        [
            (0, 1.0, 1.0, 0.5),
            (10, 0.0, 1.0, 0.5),
            (10, 1.0, 1.0, 1.5),
        ],
    )
    def test_validation(self, args):
        with pytest.raises(ValueError):
            request_work_for_utilization(*args)
