"""The scaling sweep: smoke run, payload schema, and the CI guard.

A miniature sweep (smaller than even ``SMOKE_POINTS``) runs the real
code path end to end; the payload it produces must satisfy
``tools/check_bench_schema.py`` — the same gate CI applies to the
committed ``BENCH_scale.json``. Drift in the payload shape therefore
fails here first, at test time, not in CI archaeology later.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.experiments.scale import SCALE_POLICIES, SWEEP, ScalePoint
from repro.experiments.sweep import run_sweep, write_bench

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "tools"))
import check_bench_schema  # noqa: E402

TINY = (ScalePoint(n_servers=5, n_filesets=40, n_requests=2_000),)


@pytest.fixture(scope="module")
def payload():
    return run_sweep(SWEEP, points=TINY, seed=1, workers=1)


class TestSweepSmoke:
    def test_one_row_per_point_policy(self, payload):
        assert len(payload["rows"]) == len(TINY) * len(SCALE_POLICIES)
        assert [r["policy"] for r in payload["rows"]] == list(SCALE_POLICIES)

    def test_rows_complete_requests(self, payload):
        for row in payload["rows"]:
            assert row["completed"] > 0
            assert row["completed"] <= row["n_requests"]

    def test_policy_quality_metrics_sane(self, payload):
        for row in payload["rows"]:
            assert 0.0 < row["jain_index"] <= 1.0
            assert row["mean_latency"] > 0
            assert row["p99_latency"] >= row["mean_latency"]

    def test_deterministic(self, payload, tmp_path):
        again = run_sweep(SWEEP, points=TINY, seed=1, workers=1)
        assert again == payload
        a = write_bench(payload, tmp_path / "a.json")
        b = write_bench(again, tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()


class TestFanOut:
    """The sweep fans cells out over ``stream_map``; the payload must be
    identical to the sequential (``workers=1``) run, rows in the same
    submission order."""

    def test_parallel_payload_identical(self, payload, tmp_path):
        parallel = run_sweep(SWEEP, points=TINY, seed=1, workers=2)
        assert parallel == payload
        a = write_bench(payload, tmp_path / "sequential.json")
        b = write_bench(parallel, tmp_path / "parallel.json")
        assert a.read_bytes() == b.read_bytes()

    def test_workers_validated(self):
        with pytest.raises(ValueError, match=">= 1"):
            run_sweep(SWEEP, points=TINY, seed=1, workers=0)


class TestSchemaGuard:
    def test_payload_passes_guard(self, payload):
        assert check_bench_schema.check_payload(payload) == []

    def test_written_file_passes_guard(self, payload, tmp_path):
        path = write_bench(payload, tmp_path / "BENCH_scale.json")
        assert check_bench_schema.check_payload(json.loads(path.read_text())) == []
        assert check_bench_schema.main(["check", str(path)]) == 0

    def test_guard_rejects_drift(self, payload):
        mutated = json.loads(json.dumps(payload))
        mutated["rows"][0]["drive_seconds"] = 0.1
        del mutated["rows"][0]["jain_index"]
        mutated["schema_version"] = 99
        problems = check_bench_schema.check_payload(mutated)
        assert any("unexpected keys" in p and "drive_seconds" in p for p in problems)
        assert any("jain_index" in p for p in problems)
        assert any("schema_version" in p for p in problems)

    def test_guard_rejects_non_object(self):
        assert check_bench_schema.check_payload([1, 2]) != []

    def test_committed_artifact_passes(self):
        """CI gate sanity: the committed BENCH_scale.json is schema-clean."""
        path = REPO / "BENCH_scale.json"
        if not path.exists():
            pytest.skip("BENCH_scale.json not generated yet")
        assert check_bench_schema.check_payload(json.loads(path.read_text())) == []
