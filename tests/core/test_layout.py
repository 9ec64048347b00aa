"""Layout engine: target application, admit/evict, minimal movement."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError, UnknownServerError
from repro.core.interval import HALF, IntervalLayout, region_difference
from repro.core.layout import LayoutEngine


@pytest.fixture
def engine():
    return LayoutEngine()


@pytest.fixture
def layout():
    return IntervalLayout.initial([0, 1, 2, 3, 4])


class TestNormalize:
    def test_sums_to_half(self, engine):
        out = engine.normalize({0: 3.0, 1: 1.0})
        assert sum(out.values()) == pytest.approx(HALF)
        assert out[0] == pytest.approx(3 * out[1])

    def test_negative_values_clamped(self, engine):
        out = engine.normalize({0: -5.0, 1: 1.0})
        assert out[0] == 0.0
        assert out[1] == pytest.approx(HALF)

    def test_all_zero_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            engine.normalize({0: 0.0, 1: 0.0})


class TestApplyTargets:
    def test_exact_lengths(self, engine, layout):
        targets = {0: 0.05, 1: 0.05, 2: 0.10, 3: 0.10, 4: 0.20}
        engine.apply_targets(layout, targets)
        for sid, want in targets.items():
            assert layout.lengths()[sid] == pytest.approx(want, abs=1e-9)
        layout.check_invariants()

    def test_unnormalized_targets_are_scaled(self, engine, layout):
        engine.apply_targets(layout, {0: 1, 1: 3, 2: 5, 3: 7, 4: 9})
        assert layout.lengths()[4] == pytest.approx(9 / 25 * HALF)

    def test_mismatched_server_set_rejected(self, engine, layout):
        with pytest.raises(UnknownServerError):
            engine.apply_targets(layout, {0: 1.0})
        with pytest.raises(UnknownServerError):
            engine.apply_targets(
                layout, {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 99: 1}
            )

    def test_floor_snaps_tiny_lengths_to_zero(self, layout):
        engine = LayoutEngine(floor_length=0.01)
        engine.apply_targets(layout, {0: 0.001, 1: 1, 2: 1, 3: 1, 4: 1})
        assert layout.lengths()[0] == 0.0
        layout.check_invariants()

    def test_movement_is_bounded_by_deltas(self, engine, layout):
        """Moved measure is at most the sum of |delta| (one unit leaves a
        shrinker, one enters a grower) and can be *less* when the grower
        reclaims exactly the space the shrinker released (shrink-before-
        grow ordering makes that overlap possible)."""
        before = layout.copy()
        current = layout.lengths()
        targets = dict(current)
        targets[0] = current[0] - 0.04
        targets[4] = current[4] + 0.04
        engine.apply_targets(layout, targets)
        moved = region_difference(before, layout)
        assert 0.04 - 1e-9 <= moved <= 0.08 + 1e-9

    def test_identity_targets_move_nothing(self, engine, layout):
        before = layout.copy()
        engine.apply_targets(layout, layout.lengths())
        assert region_difference(before, layout) == pytest.approx(0.0, abs=1e-9)


class TestAdmitEvict:
    def test_admit_gives_equal_share_by_default(self, engine, layout):
        engine.admit(layout, 5)
        assert layout.lengths()[5] == pytest.approx(HALF / 6)
        assert layout.total_mapped == pytest.approx(HALF)
        layout.check_invariants()

    def test_admit_scales_incumbents_proportionally(self, engine, layout):
        before = layout.lengths()
        engine.admit(layout, 5, initial_length=0.1)
        after = layout.lengths()
        for sid in before:
            assert after[sid] == pytest.approx(before[sid] * (HALF - 0.1) / HALF)

    def test_admit_repartitions_at_threshold(self, engine):
        layout = IntervalLayout.initial([0, 1, 2, 3])
        assert layout.n_partitions == 8
        engine.admit(layout, 4)
        assert layout.n_partitions == 16
        layout.check_invariants()

    def test_admit_bad_length_rejected(self, engine, layout):
        with pytest.raises(ConfigurationError):
            engine.admit(layout, 5, initial_length=0.9)

    def test_evict_restores_half_occupancy(self, engine, layout):
        engine.evict(layout, 2)
        assert 2 not in layout.server_ids
        assert layout.total_mapped == pytest.approx(HALF)
        layout.check_invariants()

    def test_evict_scales_survivors_proportionally(self, engine, layout):
        engine.apply_targets(layout, {0: 1, 1: 2, 2: 3, 3: 4, 4: 10})
        before = layout.lengths()
        engine.evict(layout, 4)
        after = layout.lengths()
        scale = HALF / (HALF - before[4])
        for sid in after:
            assert after[sid] == pytest.approx(before[sid] * scale, rel=1e-6)

    def test_evict_last_server_leaves_empty_layout(self, engine):
        layout = IntervalLayout.initial([0])
        engine.evict(layout, 0)
        assert layout.n_servers == 0
        assert layout.total_mapped == 0.0

    def test_admit_after_evict_cycle(self, engine, layout):
        """The paper's recover-after-fail scenario, repeated."""
        for _ in range(3):
            engine.evict(layout, 0)
            engine.admit(layout, 0)
            layout.check_invariants()
        assert layout.total_mapped == pytest.approx(HALF)

    def test_evict_all_parked_survivors_get_equal_shares(self, engine):
        layout = IntervalLayout.initial([0, 1, 2])
        engine.apply_targets(layout, {0: 1.0, 1: 0.0, 2: 0.0})
        engine.evict(layout, 0)
        assert layout.lengths()[1] == pytest.approx(HALF / 2)
        assert layout.lengths()[2] == pytest.approx(HALF / 2)
