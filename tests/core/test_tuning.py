"""The paper's tuning rule: averaging rules, zero-sum scaling, idle handling."""

from __future__ import annotations

import math

import pytest

from repro.control import MultiplicativeController
from repro.core.errors import ConfigurationError
from repro.core.tuning import (
    AVERAGING_RULES,
    IncompetenceDetector,
    LatencyReport,
    arithmetic_mean,
    trimmed_mean,
    weighted_mean,
)


def report(sid, lat, count=100, prev=None, idle_rounds=0):
    return LatencyReport(
        server_id=sid,
        mean_latency=lat,
        request_count=count,
        idle_rounds=idle_rounds,
        prev_mean_latency=prev if prev is not None else lat,
    )


def idle_report(sid, idle_rounds=1):
    return LatencyReport(
        server_id=sid, mean_latency=math.nan, request_count=0, idle_rounds=idle_rounds
    )


class TestAveragingRules:
    def test_arithmetic(self):
        reps = [report(0, 1.0), report(1, 3.0)]
        assert arithmetic_mean(reps) == 2.0

    def test_weighted_by_requests(self):
        reps = [report(0, 1.0, count=300), report(1, 5.0, count=100)]
        assert weighted_mean(reps) == pytest.approx(2.0)

    def test_weighted_falls_back_when_no_counts(self):
        reps = [report(0, 1.0, count=0), report(1, 3.0, count=0)]
        assert weighted_mean(reps) == 2.0

    def test_trimmed_drops_extremes(self):
        reps = [report(i, v) for i, v in enumerate([1, 1, 1, 1, 100, 1, 1, 1])]
        assert trimmed_mean(reps) < arithmetic_mean(reps)

    def test_registry_complete(self):
        assert set(AVERAGING_RULES) == {"arithmetic", "weighted", "trimmed"}


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"averaging": "nope"},
            {"gain": 0.0},
            {"max_step": 1.0},
            {"grow_step": 1.0},
            {"grow_step": 99.0},
            {"idle_seed": 0.9},
            {"idle_backoff": 0},
            {"deadband": -0.1},
            {"floor_length": 0.9},
            {"floor_length": 0.0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            MultiplicativeController(**kwargs)

    def test_defaults_valid(self):
        MultiplicativeController()  # must not raise


class TestComputeTargets:
    def test_zero_sum(self):
        ctrl = MultiplicativeController(deadband=0.1)
        lengths = {0: 0.1, 1: 0.1, 2: 0.1, 3: 0.1, 4: 0.1}
        reps = [report(i, lat, prev=lat) for i, lat in enumerate([10, 5, 1, 0.5, 0.2])]
        targets = ctrl.observe(lengths, reps)
        assert sum(targets.values()) == pytest.approx(0.5)

    def test_slow_shrinks_fast_grows(self):
        ctrl = MultiplicativeController(deadband=0.1)
        lengths = {0: 0.25, 1: 0.25}
        reps = [report(0, 10.0, prev=10.0), report(1, 0.1, prev=0.1)]
        targets = ctrl.observe(lengths, reps)
        assert targets[0] < 0.25
        assert targets[1] > 0.25

    def test_deadband_holds_regions(self):
        ctrl = MultiplicativeController(deadband=0.5)
        lengths = {0: 0.3, 1: 0.2}
        # Both within ±50% of the weighted average.
        reps = [report(0, 1.2, prev=1.2), report(1, 0.9, prev=0.9)]
        targets = ctrl.observe(lengths, reps)
        assert targets == pytest.approx(lengths)

    def test_burst_filter_blocks_single_window_spike(self):
        ctrl = MultiplicativeController(deadband=0.2)
        lengths = {0: 0.25, 1: 0.25}
        # Server 0 spikes now but was fine last window -> no shed.
        reps = [report(0, 50.0, prev=1.0), report(1, 1.0, prev=1.0)]
        targets = ctrl.observe(lengths, reps)
        assert targets[0] == pytest.approx(0.25)

    def test_persistent_spike_sheds(self):
        ctrl = MultiplicativeController(deadband=0.2)
        lengths = {0: 0.25, 1: 0.25}
        reps = [report(0, 50.0, prev=50.0), report(1, 1.0, prev=1.0)]
        targets = ctrl.observe(lengths, reps)
        assert targets[0] < 0.25

    def test_first_round_has_no_burst_protection(self):
        """nan prev (first report) counts as persistent — convergence
        must start in round 1."""
        ctrl = MultiplicativeController(deadband=0.2)
        lengths = {0: 0.25, 1: 0.25}
        reps = [
            report(0, 50.0, prev=math.nan),
            report(1, 1.0, prev=math.nan),
        ]
        targets = ctrl.observe(lengths, reps)
        assert targets[0] < 0.25

    def test_step_clamps(self):
        ctrl = MultiplicativeController(gain=5.0, max_step=1.5, grow_step=1.2, deadband=0.0)
        lengths = {0: 0.25, 1: 0.25}
        reps = [report(0, 1000.0, prev=1000.0), report(1, 0.001, prev=0.001)]
        targets = ctrl.observe(lengths, reps)
        # shrink capped at 1/1.5, growth capped at 1.2 (then matched down)
        assert targets[0] >= 0.25 / 1.5 - 1e-9
        assert targets[1] <= 0.25 * 1.2 + 1e-9

    def test_idle_grow_probes_on_backoff_multiple(self):
        ctrl = MultiplicativeController(idle_seed=0.05, idle_backoff=5, deadband=0.0)
        lengths = {0: 0.0, 1: 0.5}
        reps = [idle_report(0, idle_rounds=5), report(1, 1.0, prev=1.0)]
        targets = ctrl.observe(lengths, reps)
        assert targets[0] == pytest.approx(0.05)

    def test_idle_grow_holds_between_probes(self):
        ctrl = MultiplicativeController(idle_seed=0.05, idle_backoff=5)
        lengths = {0: 0.0, 1: 0.5}
        reps = [idle_report(0, idle_rounds=3), report(1, 1.0, prev=1.0)]
        targets = ctrl.observe(lengths, reps)
        assert targets[0] == 0.0

    def test_all_idle_no_change(self):
        ctrl = MultiplicativeController()
        lengths = {0: 0.25, 1: 0.25}
        reps = [idle_report(0, 2), idle_report(1, 2)]
        targets = ctrl.observe(lengths, reps)
        assert targets == pytest.approx(lengths)

    def test_unknown_reporter_rejected(self):
        ctrl = MultiplicativeController()
        with pytest.raises(ConfigurationError):
            ctrl.observe({0: 0.5}, [report(99, 1.0)])

    def test_report_is_idle_flag(self):
        assert idle_report(0).is_idle
        assert not report(0, 1.0).is_idle


class TestIncompetenceDetector:
    def test_flags_after_patience(self):
        det = IncompetenceDetector(threshold=0.01, patience=3)
        for i in range(2):
            assert det.observe({0: 0.001, 1: 0.4}) == []
        assert det.observe({0: 0.001, 1: 0.4}) == [0]
        assert det.flagged == {0}

    def test_recovery_clears_flag(self):
        det = IncompetenceDetector(threshold=0.01, patience=1)
        det.observe({0: 0.001})
        assert det.flagged == {0}
        det.observe({0: 0.1})
        assert det.flagged == set()

    def test_departed_servers_forgotten(self):
        det = IncompetenceDetector(threshold=0.01, patience=1)
        det.observe({0: 0.001, 1: 0.4})
        det.observe({1: 0.4})
        assert det.flagged == set()

    def test_flags_only_once(self):
        det = IncompetenceDetector(threshold=0.01, patience=1)
        assert det.observe({0: 0.001}) == [0]
        assert det.observe({0: 0.001}) == []

    def test_bad_patience(self):
        with pytest.raises(ConfigurationError):
            IncompetenceDetector(patience=0)
