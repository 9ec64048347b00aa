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

from repro.experiments.scale import (
    EVENTS_PER_COMPLETED_REQUEST,
    SCALE_POLICIES,
    SWEEP,
    ScalePoint,
    run_scale_point,
)
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
            assert row["events"] == EVENTS_PER_COMPLETED_REQUEST * row["completed"]
            assert row["events_per_sec"] > 0

    def test_policy_quality_metrics_sane(self, payload):
        for row in payload["rows"]:
            assert 0.0 < row["jain_index"] <= 1.0
            assert row["mean_latency"] > 0
            assert row["p99_latency"] >= row["mean_latency"]

    def test_deterministic_modulo_timing(self, payload):
        again = run_sweep(SWEEP, points=TINY, seed=1, workers=1)
        timing = {"setup_seconds", "workload_seconds", "placement_seconds",
                  "reshuffle_seconds", "drive_seconds", "drive_seconds_all",
                  "events_per_sec"}
        for a, b in zip(payload["rows"], again["rows"]):
            for key in set(a) - timing:
                assert a[key] == b[key], key

    def test_repeats_recorded(self):
        row = run_scale_point(TINY[0], "anu", seed=1, repeats=2)
        assert len(row["drive_seconds_all"]) == 2
        assert row["drive_seconds"] == min(row["drive_seconds_all"])


TIMING_KEYS = frozenset(
    {
        "setup_seconds",
        "workload_seconds",
        "placement_seconds",
        "reshuffle_seconds",
        "drive_seconds",
        "drive_seconds_all",
        "events_per_sec",
    }
)


class TestFanOut:
    """The sweep fans cells out over ``stream_map``; rows must be
    byte-identical to the sequential (``workers=1``) run modulo
    wall-clock timing, in the same submission order."""

    def test_workers_recorded_in_payload(self, payload):
        assert payload["workers"] == 1  # module fixture runs sequentially

    def test_parallel_rows_identical_modulo_timing(self, payload):
        parallel = run_sweep(SWEEP, points=TINY, seed=1, workers=2)
        assert parallel["workers"] == 2
        assert len(parallel["rows"]) == len(payload["rows"])
        for a, b in zip(payload["rows"], parallel["rows"]):
            for key in set(a) | set(b):
                if key in TIMING_KEYS:
                    continue
                assert a[key] == b[key], key

    def test_repeats_pin_to_one_worker(self):
        """``repeats > 1`` exists for honest best-of-N drive timing —
        fanning repeats out across workers would let cells contend for
        cores and poison the measurement, so the sweep pins itself."""
        payload = run_sweep(SWEEP, points=TINY, seed=1, repeats=2, workers=4)
        assert payload["workers"] == 1
        for row in payload["rows"]:
            assert len(row["drive_seconds_all"]) == 2

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
        mutated["rows"][0]["surprise"] = 1
        del mutated["rows"][0]["events_per_sec"]
        mutated["schema_version"] = 99
        problems = check_bench_schema.check_payload(mutated)
        assert any("surprise" in p for p in problems)
        assert any("events_per_sec" in p for p in problems)
        assert any("schema_version" in p for p in problems)

    def test_guard_rejects_non_object(self):
        assert check_bench_schema.check_payload([1, 2]) != []

    def test_committed_artifact_passes(self):
        """CI gate sanity: the committed BENCH_scale.json is schema-clean."""
        path = REPO / "BENCH_scale.json"
        if not path.exists():
            pytest.skip("BENCH_scale.json not generated yet")
        assert check_bench_schema.check_payload(json.loads(path.read_text())) == []
