"""Weighted rendezvous hashing baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import FileSetCatalog
from repro.core import HashFamily
from repro.policies import WeightedHashing
from repro.policies.base import RebalanceContext

POWERS = {0: 1.0, 1: 3.0, 2: 5.0, 3: 7.0, 4: 9.0}


@pytest.fixture
def catalog():
    return FileSetCatalog([f"/fs{i}" for i in range(400)], [10.0] * 400, [10] * 400)


class TestPlacement:
    def test_share_proportional_to_weight(self, catalog):
        policy = WeightedHashing(POWERS, hash_family=HashFamily(seed=2))
        placement = policy.initial_placement(catalog, None)
        counts = {sid: 0 for sid in POWERS}
        for sid in placement.values():
            counts[sid] += 1
        total_w = sum(POWERS.values())
        for sid, power in POWERS.items():
            expected = len(catalog) * power / total_w
            # Multinomial noise: allow ±50% relative at these counts.
            assert expected * 0.5 <= counts[sid] <= expected * 1.6, (sid, counts)

    def test_deterministic(self, catalog):
        a = WeightedHashing(POWERS, hash_family=HashFamily(seed=2))
        b = WeightedHashing(POWERS, hash_family=HashFamily(seed=2))
        assert a.initial_placement(catalog, None) == b.initial_placement(catalog, None)

    def test_static_rebalance(self, catalog):
        policy = WeightedHashing(POWERS)
        policy.initial_placement(catalog, None)
        ctx = RebalanceContext(now=120.0, round_index=1, reports=[])
        assert policy.rebalance(ctx) == []

    def test_state_is_weight_vector(self, catalog):
        policy = WeightedHashing(POWERS)
        policy.initial_placement(catalog, None)
        assert policy.shared_state_entries() == len(POWERS)

    def test_unknown_name_placeable(self):
        policy = WeightedHashing(POWERS)
        assert policy.locate("/new") in POWERS

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedHashing({})
        with pytest.raises(ValueError):
            WeightedHashing({0: 0.0})


class TestMembership:
    def test_failure_moves_only_victims(self, catalog):
        policy = WeightedHashing(dict(POWERS), hash_family=HashFamily(seed=2))
        placement = policy.initial_placement(catalog, None)
        victims = {n for n, s in placement.items() if s == 2}
        survivors = {n: s for n, s in placement.items() if s != 2}
        moves = policy.server_failed(2)
        assert {m.fileset for m in moves} == victims
        for name, sid in survivors.items():
            assert policy.locate(name) == sid  # rendezvous minimal disruption

    def test_addition_steals_weight_share(self, catalog):
        policy = WeightedHashing(dict(POWERS), hash_family=HashFamily(seed=2))
        placement = policy.initial_placement(catalog, None)
        moves = policy.server_added(5, power_hint=5.0)
        # every move targets the newcomer; nothing shuffles between
        # incumbents (the rendezvous property)
        assert moves
        assert all(m.target == 5 for m in moves)
        share = len(moves) / len(catalog)
        expected = 5.0 / (sum(POWERS.values()) + 5.0)
        assert expected * 0.4 <= share <= expected * 1.8

    def test_fail_all_but_one(self, catalog):
        policy = WeightedHashing(dict(POWERS))
        policy.initial_placement(catalog, None)
        for sid in (0, 1, 2, 3):
            policy.server_failed(sid)
        assert all(s == 4 for s in policy.assignments().values())


class TestHeterogeneityAwareButStatic:
    def test_beats_simple_on_heterogeneous_cluster(self, catalog):
        """Knowing the capacities helps: the weakest server gets ~4%
        of file sets instead of ~20%."""
        from repro.policies import SimpleRandomization

        weighted = WeightedHashing(POWERS, hash_family=HashFamily(seed=2))
        simple = SimpleRandomization(list(POWERS), hash_family=HashFamily(seed=2))
        wp = weighted.initial_placement(catalog, None)
        sp = simple.initial_placement(catalog, None)
        w0 = sum(1 for s in wp.values() if s == 0)
        s0 = sum(1 for s in sp.values() if s == 0)
        assert w0 < s0 / 2
