"""Unit behavior of each controller in the family."""

from __future__ import annotations

import math

import pytest

from repro.control import (
    CONTROLLERS,
    BrownoutController,
    Controller,
    ForecastingController,
    MultiplicativeController,
    PIController,
    PolePlacementController,
    as_controller,
    default_controller,
    make_controller,
)
from repro.core.errors import ConfigurationError
from repro.core.interval import HALF

from .conftest import make_report


EQUAL = {sid: 0.1 for sid in range(5)}


class TestRegistry:
    def test_every_registered_name_constructs(self):
        for name in CONTROLLERS:
            ctrl = make_controller(name)
            assert isinstance(ctrl, Controller)
            assert ctrl.floor_length > 0.0

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            make_controller("nope")

    @pytest.mark.parametrize("name", sorted(CONTROLLERS))
    def test_knobs_pass_by_keyword(self, name):
        assert make_controller(name, floor_length=2e-4).floor_length == 2e-4

    @pytest.mark.parametrize("name", ["multiplicative", "pi", "pole"])
    @pytest.mark.parametrize(
        "knob, message",
        [
            ({"max_step": 1.0}, "max_step must be > 1"),
            ({"deadband": -0.1}, "deadband must be >= 0"),
        ],
    )
    def test_clamp_knobs_validated(self, name, knob, message):
        with pytest.raises(ConfigurationError, match=message):
            make_controller(name, **knob)

    def test_forecast_rejects_inner_knobs_beside_inner(self):
        with pytest.raises(ConfigurationError):
            ForecastingController(inner=PIController(), floor_length=2e-4)

    def test_default_is_the_papers_rule(self):
        ctrl = default_controller()
        assert isinstance(ctrl, MultiplicativeController)
        assert ctrl.gain == MultiplicativeController().gain

    def test_as_controller_none_builds_default(self):
        ctrl = as_controller(None)
        assert isinstance(ctrl, MultiplicativeController)
        assert as_controller(None) is not ctrl

    def test_as_controller_passes_controllers_through(self):
        ctrl = PIController()
        assert as_controller(ctrl) is ctrl

    def test_as_controller_rejects_junk(self):
        with pytest.raises(ConfigurationError):
            as_controller(object())


class TestDirectionality:
    """Every controller grows fast servers and shrinks slow ones."""

    @pytest.mark.parametrize("name", sorted(CONTROLLERS))
    def test_fast_server_grows_slow_server_shrinks(self, name):
        ctrl = make_controller(name)
        reports = [
            make_report(0, 0.2),  # much faster than average
            make_report(1, 1.0),
            make_report(2, 1.0),
            make_report(3, 1.0),
            make_report(4, 5.0),  # much slower than average
        ]
        targets = EQUAL
        # Two rounds: the multiplicative rule requires persistence, and
        # EWMA-smoothed rules need the filter to catch up.
        for _ in range(2):
            targets = ctrl.observe(targets, reports)
        assert targets[0] > targets[4]

    @pytest.mark.parametrize("name", sorted(CONTROLLERS))
    def test_uniform_latency_changes_nothing_much(self, name):
        """Raw targets are consumer-normalized; compare post-normalize
        (brownout emits absolute level·HALF targets, not deltas)."""
        from repro.core.layout import LayoutEngine

        ctrl = make_controller(name)
        reports = [make_report(sid, 1.0) for sid in range(5)]
        raw = ctrl.observe(EQUAL, reports)
        targets = LayoutEngine(
            floor_length=ctrl.floor_length
        ).floor_and_normalize(raw)
        for sid in range(5):
            assert targets[sid] == pytest.approx(EQUAL[sid], rel=0.15)


class TestStateContracts:
    def test_stateless_flags(self):
        assert MultiplicativeController().stateless
        assert PolePlacementController().stateless
        assert not PIController().stateless
        assert not BrownoutController().stateless
        assert not ForecastingController().stateless

    def test_fork_isolates_state(self):
        ctrl = PIController()
        reports = [make_report(sid, 1.0 + sid) for sid in range(5)]
        ctrl.observe(EQUAL, reports)
        fork = ctrl.fork()
        assert fork._integral == ctrl._integral
        fork.observe(EQUAL, reports)
        # The fork advanced; the original must not have.
        assert fork._integral != ctrl._integral

    def test_fork_preserves_decisions(self):
        """A forked controller continues exactly like the original."""
        for name in sorted(CONTROLLERS):
            a = make_controller(name)
            b = None
            battery = [
                [make_report(sid, 0.5 + sid + r * 0.1) for sid in range(5)]
                for r in range(6)
            ]
            targets_a = targets_b = EQUAL
            for r, reports in enumerate(battery):
                if r == 3:
                    b = a.fork()
                    targets_b = dict(targets_a)
                targets_a = a.observe(targets_a, reports)
                if b is not None:
                    targets_b = b.observe(targets_b, reports)
            assert targets_a == targets_b, name

    def test_unknown_server_report_raises(self):
        ctrl = PIController()
        with pytest.raises(ConfigurationError):
            ctrl.observe({0: 0.25}, [make_report(99, 1.0)])


class TestPIController:
    def test_integral_accumulates_persistent_error(self):
        ctrl = PIController()
        # Mild persistent error: inside the anti-windup window, so the
        # integral actually accumulates across rounds.
        reports = [make_report(0, 0.8), make_report(1, 1.2)]
        lengths = {0: 0.25, 1: 0.25}
        ctrl.observe(lengths, reports)
        first = dict(ctrl._integral)
        ctrl.observe(lengths, reports)
        assert abs(ctrl._integral[0]) > abs(first[0])

    def test_deadband_holds_lengths(self):
        ctrl = PIController(deadband=0.10)
        reports = [make_report(0, 1.02), make_report(1, 0.98)]
        lengths = {0: 0.25, 1: 0.25}
        targets = ctrl.observe(lengths, reports)
        assert targets == pytest.approx(lengths)

    def test_step_clamp(self):
        ctrl = PIController(kp=50.0, ki=0.0, max_step=1.5)
        reports = [make_report(0, 0.01), make_report(1, 10.0)]
        lengths = {0: 0.25, 1: 0.25}
        targets = ctrl.observe(lengths, reports)
        assert targets[0] <= 0.25 * 1.5 + 1e-12
        assert targets[1] >= 0.25 / 1.5 - 1e-12


class TestPolePlacement:
    def test_pole_sets_correction_fraction(self):
        # latency twice the average → avg/lat - 1 = -0.5; with pole p
        # the length moves by (1-p)·(-0.5)·length.
        reports = [make_report(0, 1.0), make_report(1, 3.0)]
        lengths = {0: 0.25, 1: 0.25}
        slow = PolePlacementController(pole=0.9)
        fast = PolePlacementController(pole=0.1)
        t_slow = slow.observe(lengths, reports)
        t_fast = fast.observe(lengths, reports)
        # The low pole corrects more aggressively per round.
        assert t_fast[1] < t_slow[1] < lengths[1]


class TestBrownout:
    def test_levels_saturate(self):
        ctrl = BrownoutController(min_level=0.05)
        lengths = {0: 0.25, 1: 0.25}
        # Persistently terrible server 1: level must bottom out at
        # min_level, never negative.
        for _ in range(60):
            ctrl.observe(
                lengths, [make_report(0, 0.1), make_report(1, 50.0)]
            )
        assert ctrl._level[1] == pytest.approx(0.05)
        assert ctrl._level[0] == pytest.approx(1.0)

    def test_targets_scale_half(self):
        ctrl = BrownoutController()
        lengths = {0: 0.25, 1: 0.25}
        targets = ctrl.observe(
            lengths, [make_report(0, 1.0), make_report(1, 1.0)]
        )
        for sid in lengths:
            assert targets[sid] == pytest.approx(ctrl._level[sid] * HALF)


class TestForecasting:
    def test_wraps_any_inner(self):
        ctrl = ForecastingController(inner=PIController())
        assert ctrl.name == "forecast+pi"

    def test_rising_demand_prescales_down(self):
        """A server with fast-growing demand gets pre-shrunk."""
        ctrl = ForecastingController(strength=0.5)
        lengths = {0: 0.25, 1: 0.25}
        targets = dict(lengths)
        flat = None
        for r in range(6):
            reports = [
                make_report(0, 1.0, request_count=100 + 120 * r),
                make_report(1, 1.0, request_count=100),
            ]
            out = ctrl.observe(targets, reports)
            flat = out
        # Identical latencies: the inner rule holds both; the forecast
        # shrinks only the ramping server.
        assert flat[0] < flat[1]

    def test_prescale_is_capped(self):
        ctrl = ForecastingController(strength=5.0, prescale_cap=1.3)
        lengths = {0: 0.25, 1: 0.25}
        targets = dict(lengths)
        for r in range(4):
            reports = [
                make_report(0, 1.0, request_count=10 + 10_000 * r),
                make_report(1, 1.0, request_count=10),
            ]
            targets = ctrl.observe(dict(lengths), reports)
        assert targets[0] >= lengths[0] / 1.3 - 1e-12
        assert targets[1] <= lengths[1] * 1.3 + 1e-12


class TestSystemAverage:
    @pytest.mark.parametrize("name", sorted(CONTROLLERS))
    def test_average_is_pure(self, name):
        """distributed.control asserts delegate == manager averages."""
        ctrl = make_controller(name)
        reports = [make_report(sid, 1.0 + sid) for sid in range(5)]
        first = ctrl.system_average(reports)
        ctrl.observe({sid: 0.1 for sid in range(5)}, reports)
        assert ctrl.system_average(reports) == first

    @pytest.mark.parametrize("name", sorted(CONTROLLERS))
    def test_all_idle_is_nan(self, name):
        ctrl = make_controller(name)
        avg = ctrl.system_average([make_report(0, None)])
        assert math.isnan(avg)
