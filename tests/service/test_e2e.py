"""End-to-end loopback smoke: servers + locator + clients + twin.

A miniature of ``python -m repro.service bench --smoke``, inline (no
forked processes) so it runs fast and debuggable under pytest. Every
hard gate the CI bench enforces is asserted here too.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service.bench import bench_payload, gate_failures, run_bench
from repro.service.config import ServiceConfig


@pytest.fixture(scope="module")
def bench_run():
    config = ServiceConfig(
        server_powers={"s0": 1.0, "s1": 3.0},
        epoch_seconds=0.4,
        duration_seconds=2.0,
        clients=2,
        n_filesets=12,
        target_requests=240,
        utilization=0.5,
        time_scale=0.05,
        seed=1,
    )
    recording, results, locator, twin = asyncio.run(
        run_bench(config, processes=False)
    )
    payload = bench_payload(config, "smoke", recording, results, locator, twin)
    return config, recording, results, locator, twin, payload


class TestEndToEnd:
    def test_every_request_accounted_for(self, bench_run):
        _, _, results, _, _, payload = bench_run
        assert payload["requests_injected"] > 0
        assert payload["requests_lost"] == 0
        assert payload["conserved"] and payload["classified"]
        assert all(r.lost == 0 for r in results)

    def test_tuning_ran_on_live_reports(self, bench_run):
        _, recording, _, locator, _, payload = bench_run
        assert payload["epochs"] >= 4
        # Every completed request's sample reached the locator: the
        # clients flush their folds when they close.
        assert locator.samples_received == payload["requests_completed"] > 0
        # At least one epoch saw reports and produced a real average.
        averages = [
            e.average_latency
            for e in recording.epochs
            if e.average_latency == e.average_latency  # not nan
        ]
        assert averages

    def test_twin_parity_holds(self, bench_run):
        _, _, _, _, twin, payload = bench_run
        assert twin.decision_ok, (
            f"decision replay deviated by {twin.decision_max_l1}"
        )
        assert twin.sim_ok, (
            f"sim replay off by {twin.sim_max_l1} > {twin.sim_tolerance}"
        )
        assert payload["twin_ok"]

    def test_payload_passes_the_schema_gate(self, bench_run):
        import sys
        from pathlib import Path

        *_, payload = bench_run
        tools = Path(__file__).resolve().parents[2] / "tools"
        sys.path.insert(0, str(tools))
        try:
            from check_bench_schema import check_payload
        finally:
            sys.path.remove(str(tools))
        problems = check_payload(payload)
        assert problems == []

    def test_bench_gates_are_green(self, bench_run):
        *_, payload = bench_run
        assert gate_failures(payload) == []

    def test_rows_cover_the_run(self, bench_run):
        *_, payload = bench_run
        rows = payload["rows"]
        assert len(rows) == payload["epochs"]
        assert sum(r["completed"] for r in rows) == payload["requests_completed"]
        assert all(0.0 <= r["movement_l1"] <= 1.0 for r in rows)
