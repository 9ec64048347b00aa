"""Unit-interval geometry: invariants, primitives, re-partitioning."""

from __future__ import annotations

import pytest

from repro.core.errors import InvariantViolation, UnknownServerError
from repro.core.interval import (
    HALF,
    IntervalLayout,
    ServerRegion,
    region_difference,
    required_partitions,
)


class TestRequiredPartitions:
    def test_paper_examples(self):
        # Figure 3: 4 servers in 8 partitions; the 5th forces 16.
        assert required_partitions(4) == 8
        assert required_partitions(5) == 16

    @pytest.mark.parametrize(
        "k,expected", [(1, 2), (2, 4), (3, 8), (8, 16), (9, 32), (16, 32), (17, 64)]
    )
    def test_formula(self, k, expected):
        assert required_partitions(k) == expected

    def test_zero_servers_rejected(self):
        with pytest.raises(ValueError):
            required_partitions(0)


class TestInitialLayout:
    def test_equal_shares(self):
        layout = IntervalLayout.initial([0, 1, 2, 3, 4])
        for length in layout.lengths().values():
            assert length == pytest.approx(HALF / 5)
        layout.check_invariants()

    def test_half_occupancy(self):
        layout = IntervalLayout.initial(list(range(7)))
        assert layout.total_mapped == pytest.approx(HALF)

    def test_free_partition_always_exists(self):
        for k in (1, 2, 3, 4, 5, 8, 12, 16):
            layout = IntervalLayout.initial(list(range(k)))
            assert layout.free_partitions(), f"no free partition at k={k}"

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvariantViolation):
            IntervalLayout.initial([1, 1])

    def test_empty_rejected(self):
        with pytest.raises(InvariantViolation):
            IntervalLayout.initial([])

    def test_non_power_of_two_partitions_rejected(self):
        with pytest.raises(InvariantViolation):
            IntervalLayout(6)

    def test_too_few_partitions_rejected(self):
        with pytest.raises(InvariantViolation):
            IntervalLayout.initial(list(range(5)), n_partitions=8)


class TestOwnership:
    def test_owner_at_respects_regions(self):
        layout = IntervalLayout.initial([0, 1])
        total = 0.0
        n = 4000
        for i in range(n):
            x = (i + 0.5) / n
            if layout.owner_at(x) is not None:
                total += 1.0 / n
        assert total == pytest.approx(HALF, abs=0.01)

    def test_owner_at_out_of_range(self):
        layout = IntervalLayout.initial([0])
        with pytest.raises(ValueError):
            layout.owner_at(1.0)
        with pytest.raises(ValueError):
            layout.owner_at(-0.1)

    def test_lengths_match_segments(self):
        layout = IntervalLayout.initial([0, 1, 2])
        for sid, segs in layout.segments().items():
            measured = sum(e - s for s, e in segs)
            assert measured == pytest.approx(layout.lengths()[sid])

    def test_unknown_server(self):
        layout = IntervalLayout.initial([0])
        with pytest.raises(UnknownServerError):
            layout.region(99)


class TestGrowShrink:
    def test_grow_adds_exact_measure(self):
        layout = IntervalLayout.initial([0, 1])
        before = layout.lengths()[0]
        layout.shrink(1, 0.1)
        layout.grow(0, 0.1)
        assert layout.lengths()[0] == pytest.approx(before + 0.1)
        layout.check_invariants()

    def test_shrink_caps_at_region_size(self):
        layout = IntervalLayout.initial([0, 1])
        removed = layout.shrink(0, 10.0)
        assert removed == pytest.approx(HALF / 2)
        assert layout.lengths()[0] == pytest.approx(0.0, abs=1e-9)

    def test_shrink_then_grow_preserves_prefix(self):
        """Scaling must only move the marginal slice (locality)."""
        layout = IntervalLayout.initial([0, 1, 2, 3])
        snapshot = layout.copy()
        layout.shrink(0, 0.05)
        layout.grow(1, 0.05)
        moved = region_difference(snapshot, layout)
        assert moved == pytest.approx(0.05 + 0.05, abs=1e-9)

    def test_grow_without_free_partition_fails_loudly(self):
        layout = IntervalLayout(2)
        layout._regions[0] = ServerRegion(0)
        layout.grow(0, 0.5)  # server 0 fills one whole partition
        layout._regions[1] = ServerRegion(1)
        layout.grow(1, 0.5)  # server 1 fills the other
        with pytest.raises(InvariantViolation):
            layout.grow(0, 0.1)  # no free partition remains

    def test_zero_and_negative_deltas_are_noops(self):
        layout = IntervalLayout.initial([0, 1])
        before = layout.lengths()
        layout.grow(0, 0.0)
        layout.grow(0, -1.0)
        layout.shrink(0, 0.0)
        layout.shrink(0, -1.0)
        assert layout.lengths() == before


class TestMembership:
    def test_add_server_triggers_repartition(self):
        layout = IntervalLayout.initial([0, 1, 2, 3])
        assert layout.n_partitions == 8
        layout.add_server(4)
        assert layout.n_partitions == 16  # Figure 3

    def test_remove_server_frees_measure(self):
        layout = IntervalLayout.initial([0, 1, 2])
        released = layout.remove_server(1)
        assert released == pytest.approx(HALF / 3)
        assert 1 not in layout.server_ids
        assert layout.total_mapped == pytest.approx(HALF - HALF / 3)

    def test_add_duplicate_rejected(self):
        layout = IntervalLayout.initial([0])
        with pytest.raises(InvariantViolation):
            layout.add_server(0)


class TestRepartition:
    def test_repartition_moves_no_load(self):
        layout = IntervalLayout.initial([0, 1, 2])
        snapshot = layout.copy()
        layout.repartition()
        assert layout.n_partitions == snapshot.n_partitions * 2
        assert region_difference(snapshot, layout) == pytest.approx(0.0, abs=1e-9)
        layout.check_invariants()

    def test_repartition_preserves_lengths(self):
        layout = IntervalLayout.initial([0, 1, 2, 3, 4])
        before = layout.lengths()
        layout.repartition()
        after = layout.lengths()
        for sid in before:
            assert after[sid] == pytest.approx(before[sid])

    def test_repeated_repartition(self):
        layout = IntervalLayout.initial([0, 1])
        for _ in range(3):
            layout.repartition()
        assert layout.n_partitions == 32
        layout.check_invariants()


class TestAuditing:
    def test_detects_stale_owner_index(self):
        layout = IntervalLayout.initial([0, 1])
        region = layout.region(0)
        p = region.full[0] if region.full else region.partial[0]
        layout._owner[p] = None  # corrupt
        with pytest.raises(InvariantViolation):
            layout.check_invariants()

    def test_detects_broken_half_occupancy(self):
        layout = IntervalLayout.initial([0, 1])
        layout.shrink(0, 0.1)
        with pytest.raises(InvariantViolation):
            layout.check_invariants(complete=True)
        layout.check_invariants(complete=False)  # transient state is fine

    def test_copy_is_independent(self):
        layout = IntervalLayout.initial([0, 1])
        dup = layout.copy()
        layout.shrink(0, 0.1)
        assert dup.lengths()[0] == pytest.approx(HALF / 2)
        dup.check_invariants()


class TestSharedState:
    def test_entries_grow_with_fragmentation(self):
        layout = IntervalLayout.initial([0, 1, 2, 3, 4])
        base = layout.shared_state_entries()
        assert base >= 5  # at least one segment per server
        assert base <= 2 * 5 + 5  # bounded by fulls+partials
