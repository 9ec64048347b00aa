"""Chord ring: routing correctness, hop bounds, state accounting."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import HashFamily
from repro.distributed import ChordRing


N = 64


@pytest.fixture
def ring():
    return ChordRing([f"vp{i}" for i in range(N)], hash_family=HashFamily(seed=3))


class TestConstruction:
    def test_nodes_sorted_by_position(self, ring):
        pos = [n.position for n in ring.nodes]
        assert pos == sorted(pos)
        assert len(pos) == N

    def test_finger_count_is_log(self, ring):
        assert ring.per_node_state() == math.ceil(math.log2(64))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ChordRing(["a", "a"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ChordRing([])


class TestSuccessor:
    def test_wraps_around(self, ring):
        last = ring.nodes[-1]
        just_past = (last.position + 1e-9) % 1.0
        assert ring.successor(just_past) is ring.nodes[0]

    def test_exact_position_maps_to_node(self, ring):
        node = ring.nodes[10]
        assert ring.successor(node.position) is node


class TestRouting:
    def test_route_reaches_true_owner(self, ring):
        for i in range(200):
            key = f"/fileset/{i}"
            owner, hops = ring.route(key)
            assert owner is ring.owner_of(key)
            assert hops >= 0

    def test_hops_bounded_by_log(self, ring):
        hop_counts = [ring.route(f"k{i}")[1] for i in range(500)]
        bound = 2 * math.log2(N) + 4
        assert max(hop_counts) <= bound
        assert np.mean(hop_counts) <= math.log2(N) + 2

    def test_route_from_any_start(self, ring):
        key = "/some/key"
        true_owner = ring.owner_of(key)
        for start in ring.nodes[::8]:
            owner, _ = ring.route(key, start=start)
            assert owner is true_owner

    def test_single_node_ring(self):
        ring = ChordRing(["solo"])
        owner, hops = ring.route("anything")
        assert owner.node_id == "solo"
        assert hops == 0


class TestTradeoff:
    def test_state_much_smaller_than_replicated_table(self):
        """Footnote 1: the ring trades replication for probes."""
        n = 256
        ring = ChordRing([f"vp{i}" for i in range(n)])
        assert ring.per_node_state() == math.ceil(math.log2(n))
        assert ring.per_node_state() < n / 8  # versus n-entry table
