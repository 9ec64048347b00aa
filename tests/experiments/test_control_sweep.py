"""The controller-ablation sweep: smoke run, schema guard, CLI.

Mirrors ``test_scale_sweep.py``: a miniature sweep (smaller than even
``SMOKE_POINTS``) exercises both engine modes and all three scenarios
end to end, and its payload must satisfy the same
``tools/check_bench_schema.py`` gate CI applies to the committed
``BENCH_control.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.experiments.__main__ import main
from repro.experiments.control import (
    CONTROL_SCENARIOS,
    SWEEP,
    ControlPoint,
    render_control,
    run_control_point,
    trace_metrics,
)
from repro.experiments.sweep import run_sweep, write_bench

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "tools"))
import check_bench_schema  # noqa: E402

TINY = (
    ControlPoint(
        mode="paper", n_servers=5, n_filesets=50, n_requests=2_000,
        duration=600.0, tuning_interval=60.0,
    ),
    ControlPoint(
        mode="vector", n_servers=10, n_filesets=200, n_requests=8_000,
        duration=600.0, tuning_interval=60.0,
    ),
)
CONTROLLERS = ("multiplicative", "brownout")


@pytest.fixture(scope="module")
def payload():
    return run_sweep(SWEEP, points=TINY, controllers=CONTROLLERS, seed=1, workers=1)


class TestSweepSmoke:
    def test_row_grid_is_complete(self, payload):
        assert len(payload["rows"]) == (
            len(TINY) * len(CONTROL_SCENARIOS) * len(CONTROLLERS)
        )
        seen = {
            (r["mode"], r["scenario"], r["controller"]) for r in payload["rows"]
        }
        assert len(seen) == len(payload["rows"])

    def test_rows_did_real_work(self, payload):
        for row in payload["rows"]:
            assert row["completed"] > 0
            assert row["rounds"] > 0
            assert 0.0 < row["jain_index"] <= 1.0

    def test_churn_rows_survive_the_faults(self, payload):
        for row in payload["rows"]:
            if row["scenario"] != "churn":
                continue
            # Some requests are inevitably disrupted mid-outage, but
            # the run must not collapse.
            assert row["completed"] > 0.7 * row["n_requests"]

    def test_same_workload_per_cell(self, payload):
        """Controllers within one (mode, scenario) saw identical offered
        load — the ablation is apples-to-apples."""
        by_cell = {}
        for row in payload["rows"]:
            by_cell.setdefault((row["mode"], row["scenario"]), set()).add(
                row["n_requests"]
            )
        for cell, counts in by_cell.items():
            assert len(counts) == 1, cell

    def test_schema_gate_passes(self, payload):
        assert check_bench_schema.check_payload(payload) == []

    def test_render_mentions_every_controller(self, payload):
        text = render_control(payload)
        for name in CONTROLLERS:
            assert name in text


class TestDeterminism:
    def test_same_seed_same_rows(self):
        point = TINY[0]
        a = run_control_point(point, "hotspot", "brownout", seed=3)
        b = run_control_point(point, "hotspot", "brownout", seed=3)
        assert a == b

    def test_deterministic(self, payload, tmp_path):
        again = run_sweep(
            SWEEP, points=TINY, controllers=CONTROLLERS, seed=1, workers=1
        )
        assert again == payload
        a = write_bench(payload, tmp_path / "a.json")
        b = write_bench(again, tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_fanout_payload_identical(self, payload, tmp_path):
        parallel = run_sweep(
            SWEEP, points=TINY, controllers=CONTROLLERS, seed=1, workers=2
        )
        assert parallel == payload
        a = write_bench(payload, tmp_path / "sequential.json")
        b = write_bench(parallel, tmp_path / "parallel.json")
        assert a.read_bytes() == b.read_bytes()


class TestTraceMetrics:
    def test_converged_trace(self):
        trace = [{0: 0.25, 1: 0.25}] * 5
        m = trace_metrics(trace)
        assert m["convergence_round"] == 1
        assert m["oscillation"] == 0.0

    def test_never_converging_trace(self):
        trace = [
            {0: 0.25, 1: 0.25},
            {0: 0.4, 1: 0.1},
            {0: 0.1, 1: 0.4},
            {0: 0.4, 1: 0.1},
        ]
        m = trace_metrics(trace)
        assert m["convergence_round"] is None
        assert m["oscillation"] > 0.5

    def test_transient_then_quiet(self):
        trace = [{0: 0.5}, {0: 0.2}, {0: 0.2}, {0: 0.2}]
        m = trace_metrics(trace)
        assert m["convergence_round"] == 2

    def test_membership_change_is_not_a_discontinuity(self):
        # Server 1 leaves; only common servers are compared.
        trace = [{0: 0.25, 1: 0.25}, {0: 0.25}, {0: 0.25}]
        m = trace_metrics(trace)
        assert m["convergence_round"] == 1


class TestSchemaMutations:
    def test_missing_win_list_fails_gate(self, payload):
        mutated = dict(payload)
        mutated["feedback_wins"] = []
        problems = check_bench_schema.check_payload(mutated)
        assert any("feedback_wins" in p for p in problems)

    def test_row_drift_fails_gate(self, payload):
        mutated = json.loads(json.dumps(payload))
        mutated["rows"][0].pop("oscillation")
        mutated["rows"][1]["surprise"] = 1
        problems = check_bench_schema.check_payload(mutated)
        assert len(problems) >= 2


class TestCLI:
    def test_control_main_writes_valid_bench(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            [
                "control",
                "--smoke",
                "--seed", "1",
                "--controllers", "multiplicative", "brownout",
                "--scenarios", "hotspot",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        # A single-scenario smoke slice may legitimately have no wins;
        # only the full committed bench must. Gate everything else.
        problems = [
            p
            for p in check_bench_schema.check_payload(payload)
            if "feedback_wins" not in p
        ]
        assert problems == []
        assert "hotspot" in capsys.readouterr().out

    def test_write_is_canonical(self, payload, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_bench(payload, a)
        write_bench(json.loads(a.read_text()), b)
        assert a.read_text() == b.read_text()
