"""Experiment harness: config scaling, policy factory, figure runs.

Figure runs here use tiny scales — they verify plumbing and qualitative
shape, not paper numbers (``python -m repro.experiments claims`` checks
those at full scale).
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    PAPER_POWERS,
    PAPER_TUNING_INTERVAL,
    ExperimentConfig,
    make_policy,
    paper_config,
    result_fingerprint,
    run_comparison,
    run_figure,
)
from repro.experiments.figures import FIGURES, fig5, fig6, fig7, fig8
from repro.policies import (
    ANURandomization,
    DynamicPrescient,
    SimpleRandomization,
    VirtualProcessorSystem,
)
from repro.workloads import generate_synthetic

SCALE = 0.05  # ~3,300 requests, 10 minutes — fast but non-trivial


class TestConfig:
    def test_paper_constants(self):
        assert PAPER_POWERS == {0: 1.0, 1: 3.0, 2: 5.0, 3: 7.0, 4: 9.0}
        assert PAPER_TUNING_INTERVAL == 120.0

    def test_scaling_preserves_rates(self):
        full = paper_config(scale=1.0).synthetic_config()
        half = paper_config(scale=0.5).synthetic_config()
        assert half.duration == full.duration * 0.5
        full_rate = full.target_requests / full.duration
        half_rate = half.target_requests / half.duration
        assert half_rate == pytest.approx(full_rate, rel=0.01)

    def test_trace_scaling(self):
        cfg = paper_config(scale=0.25).trace_config()
        assert cfg.duration == 900.0

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scale=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(scale=1.5)

    def test_total_capacity(self):
        assert paper_config().total_capacity == 25.0


class TestPolicyFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("simple", SimpleRandomization),
            ("anu", ANURandomization),
            ("prescient", DynamicPrescient),
            ("virtual", VirtualProcessorSystem),
        ],
    )
    def test_makes_right_type(self, name, cls):
        policy = make_policy(name, paper_config())
        assert isinstance(policy, cls)

    def test_vp_override(self):
        policy = make_policy("virtual", paper_config(), n_virtual=40)
        assert policy.n_virtual == 40

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_policy("oracle9000", paper_config())


class TestComparison:
    @pytest.fixture(scope="class")
    def results(self):
        # ANU needs "several rounds of load placement tuning" (§5.2.1)
        # to converge, so the comparison runs longer than the plumbing
        # tests: 0.2 scale = 40 minutes = 20 tuning rounds.
        config = paper_config(seed=2, scale=0.2)
        workload = generate_synthetic(config.synthetic_config(), seed=2)
        return run_comparison(workload, config)

    def test_all_systems_ran(self, results):
        assert set(results) == {"simple", "anu", "prescient", "virtual"}
        for res in results.values():
            assert res.completed > 0

    def test_simple_weakest_server_worst(self, results):
        """Figure 5 shape: simple randomization's server 0 dominates
        latency; adaptive systems keep it in check."""
        simple = results["simple"]
        psm = simple.per_server_mean_latency
        assert psm[0] == max(psm.values())
        assert psm[0] > 5 * psm[4]

    def test_adaptive_systems_beat_simple(self, results):
        for name in ("anu", "prescient", "virtual"):
            assert (
                results[name].aggregate_mean_latency
                < results["simple"].aggregate_mean_latency
            )

    def test_prescient_is_best_or_close(self, results):
        best = min(r.aggregate_mean_latency for r in results.values())
        assert results["prescient"].aggregate_mean_latency <= best * 1.5


class TestFigureModules:
    def test_registry(self):
        assert set(FIGURES) == {"fig4", "fig5", "fig6", "fig7", "fig8"}

    def test_fig5_run_and_render(self):
        data = fig5.run(seed=2, scale=SCALE)
        text = fig5.render(data)
        assert "Figure 5" in text
        for system in ("simple", "anu", "prescient", "virtual"):
            assert f"[{system}]" in text

    def test_fig6_reuses_fig5(self):
        data5 = fig5.run(seed=2, scale=SCALE)
        data6 = fig6.run(fig5=data5)
        rows = data6.aggregate_rows()
        assert [r["system"] for r in rows] == ["anu", "prescient", "virtual"]
        text = fig6.render(data6)
        assert "Figure 6(a)" in text and "Figure 6(b)" in text

    def test_fig7_movement(self):
        data5 = fig5.run(seed=2, scale=SCALE)
        data7 = fig7.run(fig5=data5)
        assert data7.rounds > 0
        assert data7.total_moves >= 0
        assert "Figure 7" in fig7.render(data7)

    def test_fig8_sweep_and_crossover(self):
        data = fig8.run(seed=2, scale=SCALE, sweep=(5, 25, 50))
        assert set(data.sweep) == {5, 25, 50}
        assert set(data.references) == {"anu", "prescient"}
        # state entries mirror the VP count
        assert data.sweep[50].shared_state_entries == 50
        text = fig8.render(data)
        assert "crossover" in text

    def test_fig8_reuses_fig5(self):
        # the lent runs (ANU, prescient, 25 VPs) equal the ones fig8 builds itself
        sweep = (5, 25, 50)
        data5 = fig5.run(seed=2, scale=SCALE)
        lent = fig8.run(sweep=sweep, fig5=data5)
        own = fig8.run(seed=2, scale=SCALE, sweep=sweep)
        assert lent.sweep[25] is data5.results["virtual"]
        assert lent.references["anu"] is data5.results["anu"]
        assert list(lent.sweep) == list(sweep)
        assert fig8.render(lent) == fig8.render(own)
        for nv in sweep:
            assert result_fingerprint(lent.sweep[nv]) == result_fingerprint(own.sweep[nv])
        for system in ("anu", "prescient"):
            assert result_fingerprint(lent.references[system]) == result_fingerprint(
                own.references[system]
            )

    def test_run_figure_cli_entry(self):
        text = run_figure("fig7", seed=2, scale=SCALE)
        assert "total file-set moves" in text

    def test_run_figure_unknown(self):
        with pytest.raises(ValueError):
            run_figure("fig99")
