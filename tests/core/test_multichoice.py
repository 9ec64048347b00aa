"""SIEVE multiple-choice heuristic: balance and state accounting."""

from __future__ import annotations

import pytest

from repro.core import (
    ConfigurationError,
    HashFamily,
    IntervalLayout,
    MultiChoicePlacer,
)


@pytest.fixture
def layout():
    return IntervalLayout.initial(list(range(8)))


@pytest.fixture
def family():
    return HashFamily(seed=13)


class TestCandidates:
    def test_candidates_distinct_and_mapped(self, layout, family):
        placer = MultiChoicePlacer(layout, family, d=3)
        cands = placer.candidates("/some/path")
        assert len(cands) == 3
        assert len(set(cands)) == 3
        for sid in cands:
            assert sid in layout.server_ids

    def test_candidates_deterministic(self, layout, family):
        p1 = MultiChoicePlacer(layout, family, d=2)
        p2 = MultiChoicePlacer(layout, family, d=2)
        for i in range(20):
            assert p1.candidates(f"n{i}") == p2.candidates(f"n{i}")

    def test_d_larger_than_cluster_falls_back(self, family):
        layout = IntervalLayout.initial([0])
        placer = MultiChoicePlacer(layout, family, d=4)
        assert placer.candidates("x") == [0]

    def test_bad_d(self, layout, family):
        with pytest.raises(ConfigurationError):
            MultiChoicePlacer(layout, family, d=0)


class TestPlacement:
    def test_place_is_idempotent(self, layout, family):
        placer = MultiChoicePlacer(layout, family)
        a = placer.place("/x")
        loads_after_first = dict(placer.loads)
        b = placer.place("/x")
        assert a == b
        assert placer.loads == loads_after_first

    def test_two_choices_beat_one_choice(self, layout, family):
        """The classic power-of-two-choices effect on max load."""
        names = [f"item-{i}" for i in range(800)]
        placer = MultiChoicePlacer(layout, family, d=2)
        loads_mc = placer.place_all(names)

        loads_single = {sid: 0 for sid in layout.server_ids}
        for name in names:
            for off in family.probe_sequence(name):
                owner = layout.owner_at(off)
                if owner is not None:
                    loads_single[owner] += 1
                    break
        assert max(loads_mc.values()) <= max(loads_single.values())

    def test_balance_near_bound(self, layout, family):
        """d-choice max load ≈ m/n + O(1) — the §4 bound regime."""
        m = 400
        placer = MultiChoicePlacer(layout, family, d=2)
        loads = placer.place_all([f"i{i}" for i in range(m)])
        assert max(loads.values()) <= m / 8 + 8  # generous O(1) slack
