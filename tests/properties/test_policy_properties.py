"""Property-based tests over the placement policies (hypothesis)."""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.core import HashFamily
from repro.distributed import ChordRing
from repro.policies import WeightedHashing, balance_items, estimated_average_latency

def reference_balance_items(items, powers, interval, current):
    """``balance_items`` as it was before its per-server terms were
    cached: every candidate re-evaluates the whole objective."""
    server_order = list(powers)
    assignment, loads, unplaced = {}, {sid: 0.0 for sid in server_order}, []
    for name, work in items.items():
        sid = current.get(name) if current else None
        if sid is not None and sid in loads:
            assignment[name] = sid
            loads[sid] += work
        else:
            unplaced.append((name, work))
    unplaced.sort(key=lambda kv: (-kv[1], kv[0]))
    for name, work in unplaced:
        best_sid, best_val = None, None
        for sid in server_order:
            loads[sid] += work
            val = estimated_average_latency(loads, powers, interval)
            loads[sid] -= work
            if best_val is None or val < best_val - 1e-15:
                best_sid, best_val = sid, val
        assignment[name] = best_sid
        loads[best_sid] += work
    item_order = sorted(items, key=lambda n: (-items[n], n))
    movable = [n for n in item_order if items[n] > 0]
    for _ in range(30):
        improved = False
        score = estimated_average_latency(loads, powers, interval)
        margin = 1e-9 * (score if score > 1.0 else 1.0)
        for name in movable:
            work, src = items[name], assignment[name]
            for dst in server_order:
                if dst == src:
                    continue
                loads[src] -= work
                loads[dst] += work
                val = estimated_average_latency(loads, powers, interval)
                if val < score - margin:
                    assignment[name], score, src, improved = dst, val, dst, True
                    margin = 1e-9 * (score if score > 1.0 else 1.0)
                else:
                    loads[src] += work
                    loads[dst] -= work
        for i, a in enumerate(movable):
            for b in movable[i + 1 :]:
                sa, sb = assignment[a], assignment[b]
                if sa == sb:
                    continue
                wa, wb = items[a], items[b]
                loads[sa] += wb - wa
                loads[sb] += wa - wb
                val = estimated_average_latency(loads, powers, interval)
                if val < score - margin:
                    assignment[a], assignment[b], score, improved = sb, sa, val, True
                    margin = 1e-9 * (score if score > 1.0 else 1.0)
                else:
                    loads[sa] -= wb - wa
                    loads[sb] -= wa - wb
        if not improved:
            break
    return assignment


fileset_names = st.lists(
    st.integers(min_value=0, max_value=10_000).map(lambda i: f"/fs/{i}"),
    min_size=1,
    max_size=60,
    unique=True,
)


class TestWeightedRendezvousProperties:
    @given(
        fileset_names,
        st.lists(st.floats(min_value=0.1, max_value=20.0), min_size=2, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_minimal_disruption_on_failure(self, names, weights):
        """Rendezvous invariant: removing a server never moves a file
        set that did not live on it."""
        servers = {i: w for i, w in enumerate(weights)}
        policy = WeightedHashing(dict(servers), hash_family=HashFamily(seed=1))
        before = {n: policy.locate(n) for n in names}
        victim = min(servers)  # deterministic choice
        policy.server_failed(victim)
        for name in names:
            if before[name] != victim:
                assert policy.locate(name) == before[name]
            else:
                assert policy.locate(name) != victim

    @given(
        fileset_names,
        st.lists(st.floats(min_value=0.1, max_value=20.0), min_size=1, max_size=6),
        st.floats(min_value=0.1, max_value=20.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_minimal_disruption_on_addition(self, names, weights, new_weight):
        """Adding a server only moves file sets *onto* it."""
        servers = {i: w for i, w in enumerate(weights)}
        policy = WeightedHashing(dict(servers), hash_family=HashFamily(seed=1))
        before = {n: policy.locate(n) for n in names}
        new_id = len(weights)
        moves = policy.server_added(new_id, power_hint=new_weight)
        assert all(m.target == new_id for m in moves)
        moved = {m.fileset for m in moves}
        for name in names:
            if name not in moved:
                assert policy.locate(name) == before[name]


class TestOptimizerProperties:
    @given(
        st.dictionaries(
            st.integers(0, 50).map(lambda i: f"item{i}"),
            st.floats(min_value=0.0, max_value=100.0),
            min_size=1,
            max_size=30,
        ),
        st.lists(st.floats(min_value=0.5, max_value=10.0), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_assignment_total_and_valid(self, items, weights):
        powers = {i: w for i, w in enumerate(weights)}
        assignment = balance_items(items, powers, interval=10.0)
        assert set(assignment) == set(items)
        assert all(sid in powers for sid in assignment.values())

    @given(
        st.dictionaries(
            st.integers(0, 50).map(lambda i: f"item{i}"),
            st.floats(min_value=0.1, max_value=100.0),
            min_size=2,
            max_size=20,
        ),
        st.lists(st.floats(min_value=0.5, max_value=10.0), min_size=2, max_size=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_warm_start_idempotent(self, items, weights):
        """Re-solving from a solution never churns it (local optimum)."""
        powers = {i: w for i, w in enumerate(weights)}
        first = balance_items(items, powers, interval=10.0)
        second = balance_items(items, powers, interval=10.0, current=first)
        assert second == first


    @given(
        st.dictionaries(
            st.integers(0, 60).map(lambda i: f"item{i}"),
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=300.0)),
            min_size=1,
            max_size=50,
        ),
        st.lists(st.sampled_from([1.0, 3.0, 5.0, 7.0, 9.0, 2.5]), min_size=1, max_size=6),
        st.sampled_from([1.0, 10.0, 120.0]),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_full_reevaluation(self, items, weights, interval, warm, rnd):
        """Cached terms change the cost of a candidate, not one decision."""
        powers = {i: w for i, w in enumerate(weights)}
        current = None
        if warm:
            ids = list(powers) + ["gone"]
            current = {name: rnd.choice(ids) for name in items}
        assert balance_items(items, powers, interval, current) == reference_balance_items(
            items, powers, interval, current
        )


class TestChordProperties:
    @given(
        st.integers(min_value=1, max_value=80),
        st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=30, unique=True),
    )
    @settings(max_examples=30, deadline=None)
    def test_routing_always_reaches_owner(self, n_nodes, keys):
        ring = ChordRing(
            [f"n{i}" for i in range(n_nodes)], hash_family=HashFamily(seed=2)
        )
        bound = 4 * max(1, math.ceil(math.log2(max(2, n_nodes)))) + 8
        for key in keys:
            owner, hops = ring.route(key)
            assert owner is ring.owner_of(key)
            assert hops <= bound

    @given(st.integers(min_value=2, max_value=64))
    @settings(max_examples=20, deadline=None)
    def test_successor_covers_whole_circle(self, n_nodes):
        ring = ChordRing([f"n{i}" for i in range(n_nodes)], hash_family=HashFamily(seed=5))
        for i in range(101):
            node = ring.successor(i / 101.0)
            assert node in ring.nodes
