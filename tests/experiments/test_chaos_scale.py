"""The chaos-at-scale sweep: smoke run, schema guard, determinism.

Mirrors ``test_scale_sweep.py``: a miniature sweep (smaller than even
``SMOKE_POINTS``) exercises the real vectorized chaos path end to end,
and its payload must satisfy the same ``tools/check_bench_schema.py``
gate CI applies to the committed ``BENCH_chaos_scale.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from dataclasses import replace

from repro.experiments.chaos_scale import (
    CHAOS_SCALE_POLICIES,
    SWEEP,
    ChaosScalePoint,
    render_chaos_scale,
)
from repro.experiments.sweep import run_sweep, sweep_main, write_bench

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "tools"))
import check_bench_schema  # noqa: E402

TINY = (
    ChaosScalePoint(
        n_servers=5, n_filesets=40, n_requests=3_000,
        fault_rate=0.02, duration=600.0, tuning_interval=60.0,
    ),
)


@pytest.fixture(scope="module")
def payload():
    return run_sweep(SWEEP, points=TINY, seed=1, workers=1)


class TestSweepSmoke:
    def test_one_row_per_point_policy(self, payload):
        assert len(payload["rows"]) == len(TINY) * len(CHAOS_SCALE_POLICIES)
        assert [r["policy"] for r in payload["rows"]] == list(CHAOS_SCALE_POLICIES)

    def test_faults_land_and_audits_stay_clean(self, payload):
        for row in payload["rows"]:
            assert row["faults_injected"] > 0
            assert row["invariant_checks"] > 0
            assert row["invariant_violations"] == 0
            assert row["requests_lost"] == 0
            assert row["requests_failed"] == 0
            assert row["detection_within_bound"] is True

    def test_conservation_identity_per_row(self, payload):
        for row in payload["rows"]:
            assert row["requests_injected"] == (
                row["requests_completed"] + row["requests_in_flight"]
            )
            assert row["requests_in_flight"] == (
                row["requests_in_flight_queued"]
                + row["requests_in_flight_backoff"]
                + row["requests_in_flight_dispatch"]
            )

    def test_policies_share_the_fault_script(self, payload):
        # One schedule per point, shared across policies.
        assert len({r["faults_injected"] for r in payload["rows"]}) == 1
        assert len({r["fingerprint"] for r in payload["rows"]}) == len(
            CHAOS_SCALE_POLICIES
        )

    def test_fingerprints_deterministic(self, payload):
        again = run_sweep(SWEEP, points=TINY, seed=1, workers=1)
        assert [r["fingerprint"] for r in payload["rows"]] == [
            r["fingerprint"] for r in again["rows"]
        ]

    def test_fanout_identical_modulo_timing(self, payload):
        """Fanning cells over two workers reproduces the sequential
        rows byte-for-byte, fingerprints included."""
        timing = {"setup_seconds", "workload_seconds", "placement_seconds",
                  "reshuffle_seconds", "drive_seconds", "events_per_sec"}
        parallel = run_sweep(SWEEP, points=TINY, seed=1, workers=2)
        assert payload["workers"] == 1 and parallel["workers"] == 2
        for a, b in zip(payload["rows"], parallel["rows"]):
            for key in set(a) | set(b):
                if key not in timing:
                    assert a[key] == b[key], key

    def test_render_mentions_every_row(self, payload):
        table = render_chaos_scale(payload)
        for row in payload["rows"]:
            assert row["policy"] in table
        assert "5s/40fs" in table


class TestSchemaGuard:
    def test_payload_passes_guard(self, payload):
        assert check_bench_schema.check_payload(payload) == []

    def test_written_file_passes_guard(self, payload, tmp_path):
        path = write_bench(payload, tmp_path / "BENCH_chaos_scale.json")
        assert check_bench_schema.check_payload(json.loads(path.read_text())) == []
        assert check_bench_schema.main(["check", str(path)]) == 0

    def test_guard_rejects_violation_rows(self, payload):
        mutated = json.loads(json.dumps(payload))
        mutated["rows"][0]["invariant_violations"] = 3
        mutated["rows"][1]["requests_lost"] = 1
        problems = check_bench_schema.check_payload(mutated)
        assert any("invariant_violations" in p for p in problems)
        assert any("requests_lost" in p for p in problems)

    def test_committed_artifact_passes(self):
        """CI gate sanity: the committed bench is schema-clean."""
        path = REPO / "BENCH_chaos_scale.json"
        if not path.exists():
            pytest.skip("BENCH_chaos_scale.json not generated yet")
        assert check_bench_schema.check_payload(json.loads(path.read_text())) == []


class TestCLI:
    def test_smoke_cli_writes_clean_bench(self, tmp_path, capsys):
        # The real --smoke points are CI-sized but still seconds; shrink
        # further to the tiny point for test speed.
        out = tmp_path / "bench.json"
        tiny = replace(SWEEP, smoke_points=TINY)
        assert sweep_main(tiny, ["--smoke", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "chaos-scale sweep" in captured.out
        assert check_bench_schema.check_payload(json.loads(out.read_text())) == []
