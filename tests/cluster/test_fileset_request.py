"""FileSet catalog and MetadataRequest accounting."""

from __future__ import annotations

import math

import pytest

from repro.cluster import FileSet, FileSetCatalog, MetadataRequest


class TestFileSet:
    def test_mean_request_work(self):
        fs = FileSet("/a", total_work=100.0, n_requests=40)
        assert fs.mean_request_work == 2.5

    def test_zero_requests(self):
        fs = FileSet("/a", total_work=0.0, n_requests=0)
        assert fs.mean_request_work == 0.0

    def test_frozen(self):
        fs = FileSet("/a", 1.0, 1)
        with pytest.raises(AttributeError):
            fs.total_work = 2.0  # type: ignore[misc]


class TestCatalog:
    def make(self):
        return FileSetCatalog(["/a", "/b", "/c"], [10.0, 30.0, 60.0], [10, 20, 70])

    def test_lookup_and_len(self):
        cat = self.make()
        assert len(cat) == 3
        assert cat.get("/b").total_work == 30.0
        assert cat.get("/b") == FileSet("/b", total_work=30.0, n_requests=20)
        assert "/b" in cat.names and "/z" not in cat.names

    def test_totals(self):
        cat = self.make()
        assert cat.total_work == 100.0
        assert sum(fs.n_requests for fs in cat) == 100

    def test_work_share(self):
        cat = self.make()
        assert cat.work_share("/c") == pytest.approx(0.6)

    def test_iteration_order(self):
        cat = self.make()
        assert list(cat) == [
            FileSet("/a", 10.0, 10), FileSet("/b", 30.0, 20), FileSet("/c", 60.0, 70)
        ]
        assert cat.names == ["/a", "/b", "/c"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            FileSetCatalog(["/a", "/a"], [1.0, 2.0], [1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FileSetCatalog([], [], [])

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="length"):
            FileSetCatalog(["/a", "/b"], [1.0, 2.0], [1])

    def test_total_work_is_a_sequential_sum(self):
        # NumPy's pairwise sum of these gives 6.0; the name-order sum,
        # which work_share divides by, absorbs every 1.0 into 1e16.
        work = [1e16] + [1.0] * 7 + [-1e16]
        cat = FileSetCatalog([f"/{i}" for i in range(9)], work, [1] * 9)
        assert cat.total_work == 0.0

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            self.make().get("/nope")


class TestRequest:
    def test_latency_pending_is_nan(self):
        r = MetadataRequest("/a", arrival=5.0, work=1.0)
        assert not r.done
        assert math.isnan(r.latency)
        assert math.isnan(r.queue_delay)

    def test_latency_after_completion(self):
        r = MetadataRequest("/a", arrival=5.0, work=1.0)
        r.service_start = 7.0
        r.completion = 8.0
        assert r.done
        assert r.latency == 3.0
        assert r.queue_delay == 2.0
