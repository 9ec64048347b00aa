"""Property-based tests of the unit-interval geometry (hypothesis).

These are the load-bearing invariants of ANU randomization: if any of
them breaks, placement silently corrupts. Random sequences of grows,
shrinks, admissions, evictions and re-partitions must preserve them
all.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import InvariantViolation
from repro.core.interval import HALF, IntervalLayout, region_difference
from repro.core.layout import LayoutEngine

# -- strategies ----------------------------------------------------------- #

server_counts = st.integers(min_value=1, max_value=12)

# A target profile: k positive weights (later normalized to 1/2).
weight_lists = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=1, max_size=12
)


@st.composite
def layout_and_targets(draw):
    k = draw(server_counts)
    layout = IntervalLayout.initial(list(range(k)))
    weights = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=k,
            max_size=k,
        )
    )
    if sum(weights) <= 0:
        weights = [1.0] * k
    return layout, {i: w for i, w in enumerate(weights)}


# -- properties ----------------------------------------------------------- #


class TestHalfOccupancy:
    @given(layout_and_targets())
    @settings(max_examples=60, deadline=None)
    def test_apply_targets_preserves_half_occupancy(self, lt):
        layout, targets = lt
        LayoutEngine().apply_targets(layout, targets)
        assert abs(layout.total_mapped - HALF) < 1e-6
        layout.check_invariants()

    @given(layout_and_targets())
    @settings(max_examples=60, deadline=None)
    def test_free_partition_always_available(self, lt):
        layout, targets = lt
        LayoutEngine().apply_targets(layout, targets)
        assert layout.free_partitions()

    @given(layout_and_targets())
    @settings(max_examples=60, deadline=None)
    def test_lengths_match_targets_proportionally(self, lt):
        layout, targets = lt
        engine = LayoutEngine()
        engine.apply_targets(layout, targets)
        goal = engine.floor_and_normalize(targets)
        for sid, want in goal.items():
            assert layout.lengths()[sid] == pytest.approx(want, abs=1e-7)


class TestOwnershipConsistency:
    @given(layout_and_targets(), st.floats(min_value=0.0, max_value=0.9999999))
    @settings(max_examples=60, deadline=None)
    def test_owner_at_agrees_with_segments(self, lt, x):
        layout, targets = lt
        LayoutEngine().apply_targets(layout, targets)
        owner = layout.owner_at(x)
        inside = [
            sid
            for sid, segs in layout.segments().items()
            for (s, e) in segs
            if s <= x < e
        ]
        if owner is None:
            assert inside == []
        else:
            assert inside == [owner]

    @given(layout_and_targets())
    @settings(max_examples=40, deadline=None)
    def test_at_most_one_partial_per_server(self, lt):
        layout, targets = lt
        LayoutEngine().apply_targets(layout, targets)
        for sid in layout.server_ids:
            region = layout.region(sid)
            # full partitions are whole; at most one partial by type
            assert region.partial is None or 0 < region.partial[1] < 1


class TestRepartitionLossless:
    @given(layout_and_targets(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_repartition_never_moves_measure(self, lt, doublings):
        layout, targets = lt
        LayoutEngine().apply_targets(layout, targets)
        before = layout.copy()
        for _ in range(doublings):
            layout.repartition()
        assert region_difference(before, layout) < 1e-9
        layout.check_invariants()


class TestChurnSequences:
    @given(
        st.lists(
            st.tuples(st.sampled_from(["add", "evict", "retarget"]), st.integers(0, 30)),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_random_membership_churn_keeps_invariants(self, ops):
        layout = IntervalLayout.initial([0, 1, 2])
        engine = LayoutEngine()
        next_id = 3
        for op, arg in ops:
            if op == "add":
                engine.admit(layout, next_id)
                next_id += 1
            elif op == "evict" and layout.n_servers > 1:
                victim = layout.server_ids[arg % layout.n_servers]
                engine.evict(layout, victim)
            elif op == "retarget":
                weights = {
                    sid: ((arg + i * 7) % 10) + 1
                    for i, sid in enumerate(layout.server_ids)
                }
                engine.apply_targets(layout, weights)
            layout.check_invariants()
        assert abs(layout.total_mapped - HALF) < 1e-6

    @given(st.integers(min_value=1, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_admitting_n_servers_always_finds_partitions(self, n):
        """The half-occupancy + partition-count argument of §4: a free
        partition always exists for the next arrival."""
        layout = IntervalLayout.initial([0])
        engine = LayoutEngine()
        for i in range(1, n + 1):
            engine.admit(layout, i)
        assert layout.n_servers == n + 1
        layout.check_invariants()
