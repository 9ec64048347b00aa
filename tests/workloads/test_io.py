"""Trace file round-tripping."""

from __future__ import annotations

import io

import pytest

from repro.workloads import (
    SyntheticConfig,
    generate_synthetic,
    load_trace,
    save_trace,
)
from repro.workloads.io import TRACE_MAGIC


@pytest.fixture
def workload():
    return generate_synthetic(
        SyntheticConfig(n_filesets=5, duration=300.0, target_requests=200),
        seed=11,
    )


class TestRoundTrip:
    def test_file_roundtrip(self, workload, tmp_path):
        path = tmp_path / "trace.tsv"
        save_trace(workload, path)
        loaded = load_trace(path)
        assert len(loaded) == len(workload)
        assert loaded.duration == workload.duration
        assert loaded.name == workload.name
        for (a_fileset, a_arrival, a_work), (b_fileset, b_arrival, b_work) in zip(
            workload.replay(), loaded.replay()
        ):
            assert a_fileset == b_fileset
            assert a_arrival == b_arrival
            assert a_work == b_work

    def test_catalog_reconstructed(self, workload, tmp_path):
        path = tmp_path / "trace.tsv"
        save_trace(workload, path)
        loaded = load_trace(path)
        assert set(loaded.catalog.names) == set(workload.catalog.names)
        for name in workload.catalog.names:
            assert loaded.catalog.get(name).total_work == pytest.approx(
                workload.catalog.get(name).total_work
            )
            assert loaded.catalog.get(name).n_requests == workload.catalog.get(name).n_requests

    def test_stream_roundtrip(self, workload):
        buf = io.StringIO()
        save_trace(workload, buf)
        buf.seek(0)
        loaded = load_trace(buf)
        assert len(loaded) == len(workload)


class TestErrors:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("not a trace\n1.0\t/a\t1.0\n")
        with pytest.raises(ValueError, match="not a repro-trace"):
            load_trace(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(f"{TRACE_MAGIC}\n1.0\t/a\n")
        with pytest.raises(ValueError, match="line 2"):
            load_trace(path)

    def test_negative_values_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(f"{TRACE_MAGIC}\n-1.0\t/a\t1.0\n")
        with pytest.raises(ValueError):
            load_trace(path)
        # Non-finite arrivals and work are named by their line, and a
        # non-finite duration header is refused too.
        for body, match in (
            ("nan\t/a\t1.0", "line 2"),
            ("inf\t/a\t1.0", "line 2"),
            ("1.0\t/a\tinf", "line 2"),
            ("1.0\t/a\tnan", "line 2"),
            ("# duration: nan\n1.0\t/a\t1.0", "duration"),
            ("# duration: inf\n1.0\t/a\t1.0", "duration"),
        ):
            path.write_text(f"{TRACE_MAGIC}\n{body}\n")
            with pytest.raises(ValueError, match=match):
                load_trace(path)

    def test_empty_trace_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text(f"{TRACE_MAGIC}\n")
        with pytest.raises(ValueError, match="no requests"):
            load_trace(path)

    def test_duration_inferred_when_missing(self, tmp_path):
        path = tmp_path / "noheader.tsv"
        path.write_text(f"{TRACE_MAGIC}\n10.0\t/a\t1.0\n")
        loaded = load_trace(path)
        assert loaded.duration >= 10.0
