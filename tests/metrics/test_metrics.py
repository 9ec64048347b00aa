"""Metrics extraction: latency views, movement series, consistency."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.engine import ClusterConfig, ExperimentSpec
from repro.metrics import (
    aggregate_latency,
    ascii_table,
    coefficient_of_variation,
    comparison_rows,
    consistency_report,
    convergence_round,
    format_float,
    front_loadedness,
    jain_index,
    latency_series,
    movement_series,
    per_server_mean,
    steady_state_means,
)
from repro.policies import ANURandomization
from repro.workloads import SyntheticConfig, generate_synthetic

POWERS = {0: 1.0, 1: 3.0, 2: 5.0, 3: 7.0, 4: 9.0}


@pytest.fixture(scope="module")
def result():
    wl = generate_synthetic(
        SyntheticConfig(
            n_filesets=15, duration=1200.0, target_requests=3000, total_capacity=25.0
        ),
        seed=5,
    )
    sim = ExperimentSpec(
        wl, ANURandomization(list(POWERS)), ClusterConfig(server_powers=POWERS)
    ).build()
    return sim.run()


class TestLatencyViews:
    def test_aggregate_matches_result(self, result):
        agg = aggregate_latency(result)
        assert agg.mean == pytest.approx(result.aggregate_mean_latency)
        assert agg.std == pytest.approx(result.aggregate_std_latency)
        assert agg.count == result.completed

    def test_per_server_counts_sum(self, result):
        total = sum(count for _, count in per_server_mean(result).values())
        assert total == result.completed

    def test_latency_series_native(self, result):
        series = latency_series(result)
        assert set(series) == set(POWERS)
        t, v = series[4]
        assert t.shape == v.shape and t.size > 0

    def test_steady_state_means(self, result):
        means = steady_state_means(result)
        active = [m for m in means.values() if not math.isnan(m)]
        assert active and all(m > 0 for m in active)

    def test_convergence_round_detects_balance(self, result):
        rnd = convergence_round(result, tolerance=3.0, min_quiet=2)
        assert rnd is None or rnd >= 1


class TestMovement:
    def test_series_shapes(self, result):
        s = movement_series(result)
        assert s.rounds.shape == s.moves.shape
        assert s.cumulative_moves[-1] == s.moves.sum()
        assert s.total_moves == int(s.moves.sum())

    def test_cumulative_nondecreasing(self, result):
        s = movement_series(result)
        assert (np.diff(s.cumulative_moves) >= 0).all()
        assert (np.diff(s.cumulative_work_share) >= -1e-12).all()

    def test_front_loadedness_bounds(self, result):
        s = movement_series(result)
        f = front_loadedness(s)
        assert 0.0 <= f <= 1.0

    def test_front_loadedness_validation(self, result):
        s = movement_series(result)
        with pytest.raises(ValueError):
            front_loadedness(s, head_fraction=0.0)


class TestConsistency:
    def test_cov_of_constant_is_zero(self):
        assert coefficient_of_variation(np.array([2.0, 2.0, 2.0])) == 0.0

    def test_jain_of_constant_is_one(self):
        assert jain_index(np.array([5.0, 5.0])) == pytest.approx(1.0)

    def test_jain_penalizes_skew(self):
        fair = jain_index(np.array([1.0, 1.0, 1.0, 1.0]))
        unfair = jain_index(np.array([4.0, 0.0, 0.0, 0.0]))
        assert unfair < fair

    def test_report_excludes_tiny_servers(self, result):
        rep = consistency_report(result, min_share=0.05)
        for sid in rep.included:
            assert result.request_share(sid) >= 0.05
        assert set(rep.included) | set(rep.excluded) == set(POWERS)

    def test_report_validation(self, result):
        with pytest.raises(ValueError):
            consistency_report(result, min_share=1.5)


class TestSummary:
    def test_comparison_rows_fields(self, result):
        rows = comparison_rows([result])
        row = rows[0]
        assert row["system"] == "anu"
        for key in ("mean_latency", "moves", "state_entries", "jain"):
            assert key in row

    def test_ascii_table_renders(self, result):
        rows = comparison_rows([result])
        text = ascii_table(rows, columns=["system", "mean_latency", "moves"])
        lines = text.splitlines()
        assert len(lines) == 3  # header, rule, one row
        assert "system" in lines[0]

    def test_ascii_table_empty(self):
        assert ascii_table([]) == "(no rows)"

    def test_format_float(self):
        assert format_float(float("nan")) == "-"
        assert format_float(None) == "-"
        assert format_float(1.23456, 2) == "1.23"
