"""Behavioural contracts of the four LoadManager implementations."""

from __future__ import annotations

import math

import pytest

from repro.cluster import FileSetCatalog
from repro.core import HashFamily, LatencyReport
from repro.policies import (
    ANURandomization,
    DynamicPrescient,
    Move,
    PrescientKnowledge,
    RebalanceContext,
    SimpleRandomization,
    VirtualProcessorSystem,
)

SERVERS = [0, 1, 2, 3, 4]
POWERS = {0: 1.0, 1: 3.0, 2: 5.0, 3: 7.0, 4: 9.0}


@pytest.fixture
def catalog():
    return FileSetCatalog(
        [f"/fs{i}" for i in range(25)],
        [float(10 + i * 5) for i in range(25)],
        [10 + i for i in range(25)],
    )


def knowledge(catalog, powers=POWERS):
    return PrescientKnowledge(
        server_powers=dict(powers),
        upcoming_work={fs.name: fs.total_work / 10.0 for fs in catalog},
        average_work={fs.name: fs.total_work / 10.0 for fs in catalog},
    )


def ctx(catalog, reports=(), with_knowledge=True):
    return RebalanceContext(
        now=120.0,
        round_index=1,
        reports=list(reports),
        knowledge=knowledge(catalog) if with_knowledge else None,
    )


def reports(latencies, counts=None):
    out = []
    for sid, lat in latencies.items():
        cnt = (counts or {}).get(sid, 100)
        out.append(
            LatencyReport(
                sid,
                lat,
                request_count=cnt,
                idle_rounds=0 if cnt else 1,
                prev_mean_latency=lat,
            )
        )
    return out


ALL_POLICIES = [
    ("simple", lambda: SimpleRandomization(list(SERVERS))),
    ("anu", lambda: ANURandomization(list(SERVERS))),
    ("prescient", lambda: DynamicPrescient(list(SERVERS))),
    ("virtual", lambda: VirtualProcessorSystem(list(SERVERS), v=5)),
]


class TestCommonContract:
    @pytest.mark.parametrize("name,factory", ALL_POLICIES)
    def test_initial_placement_covers_catalog(self, name, factory, catalog):
        policy = factory()
        placement = policy.initial_placement(catalog, knowledge(catalog))
        assert set(placement) == set(catalog.names)
        assert all(sid in SERVERS for sid in placement.values())

    @pytest.mark.parametrize("name,factory", ALL_POLICIES)
    def test_locate_matches_placement(self, name, factory, catalog):
        policy = factory()
        placement = policy.initial_placement(catalog, knowledge(catalog))
        for fs_name, sid in placement.items():
            assert policy.locate(fs_name) == sid

    @pytest.mark.parametrize("name,factory", ALL_POLICIES)
    def test_rebalance_moves_are_consistent_with_locate(self, name, factory, catalog):
        policy = factory()
        before = policy.initial_placement(catalog, knowledge(catalog))
        moves = policy.rebalance(
            ctx(catalog, reports({0: 50.0, 1: 5.0, 2: 1.0, 3: 0.5, 4: 0.2}))
        )
        for move in moves:
            assert policy.locate(move.fileset) == move.target
            assert move.source == before[move.fileset]

    @pytest.mark.parametrize("name,factory", ALL_POLICIES)
    def test_shared_state_positive(self, name, factory, catalog):
        policy = factory()
        policy.initial_placement(catalog, knowledge(catalog))
        assert policy.shared_state_entries() >= 1


class TestSimple:
    def test_static_under_any_reports(self, catalog):
        policy = SimpleRandomization(list(SERVERS))
        policy.initial_placement(catalog, None)
        moves = policy.rebalance(
            ctx(catalog, reports({0: 1000.0, 1: 0.1, 2: 0.1, 3: 0.1, 4: 0.1}))
        )
        assert moves == []

    def test_state_is_server_list_only(self, catalog):
        policy = SimpleRandomization(list(SERVERS))
        policy.initial_placement(catalog, None)
        assert policy.shared_state_entries() == len(SERVERS)

    def test_unknown_name_still_addressable(self, catalog):
        policy = SimpleRandomization(list(SERVERS))
        policy.initial_placement(catalog, None)
        assert policy.locate("/never-registered") in SERVERS


class TestPrescient:
    def test_requires_oracle(self, catalog):
        policy = DynamicPrescient(list(SERVERS))
        with pytest.raises(ValueError):
            policy.initial_placement(catalog, None)
        policy.initial_placement(catalog, knowledge(catalog))
        with pytest.raises(ValueError):
            policy.rebalance(ctx(catalog, with_knowledge=False))

    def test_initial_placement_balanced(self, catalog):
        policy = DynamicPrescient(list(SERVERS))
        placement = policy.initial_placement(catalog, knowledge(catalog))
        loads = {sid: 0.0 for sid in SERVERS}
        for name, sid in placement.items():
            loads[sid] += catalog.get(name).total_work
        # normalized load (per unit power) of the strongest vs weakest
        per_power = {s: loads[s] / POWERS[s] for s in SERVERS if loads[s] > 0}
        assert max(per_power.values()) <= 6 * min(per_power.values())

    def test_stable_when_optimal(self, catalog):
        policy = DynamicPrescient(list(SERVERS))
        policy.initial_placement(catalog, knowledge(catalog))
        moves = policy.rebalance(ctx(catalog))
        # same knowledge as initial placement: nothing to improve
        assert moves == []

    def test_state_is_full_table(self, catalog):
        policy = DynamicPrescient(list(SERVERS))
        policy.initial_placement(catalog, knowledge(catalog))
        assert policy.shared_state_entries() == len(catalog)


class TestVirtualProcessor:
    def test_default_vp_count_is_5n(self):
        policy = VirtualProcessorSystem(list(SERVERS), v=5)
        assert policy.n_virtual == 25

    def test_vp_mapping_static(self, catalog):
        policy = VirtualProcessorSystem(list(SERVERS), v=5)
        policy.initial_placement(catalog, knowledge(catalog))
        vp_before = dict(policy._vp_of)
        policy.rebalance(ctx(catalog, reports({0: 9.0, 1: 2.0, 2: 1.0, 3: 0.7, 4: 0.4})))
        assert policy._vp_of == vp_before  # file set -> VP never changes

    def test_moves_are_whole_vps(self, catalog):
        policy = VirtualProcessorSystem(list(SERVERS), n_virtual=5)
        policy.initial_placement(catalog, knowledge(catalog))
        # Corrupt the vp->server map to force movement.
        policy._server_of_vp = {vp: 0 for vp in policy._server_of_vp}
        moves = policy.rebalance(ctx(catalog))
        moved_vps = {policy._vp_of[m.fileset] for m in moves}
        for name, vp in policy._vp_of.items():
            if vp in moved_vps:
                assert any(m.fileset == name for m in moves)

    def test_more_vps_finer_state(self, catalog):
        small = VirtualProcessorSystem(list(SERVERS), n_virtual=5)
        large = VirtualProcessorSystem(list(SERVERS), n_virtual=50)
        assert small.shared_state_entries() == 5
        assert large.shared_state_entries() == 50

    def test_vp_populations_sum_to_catalog(self, catalog):
        policy = VirtualProcessorSystem(list(SERVERS), v=5)
        policy.initial_placement(catalog, knowledge(catalog))
        assert sum(policy.vp_populations().values()) == len(catalog)


class TestANUPolicy:
    def test_ignores_oracle(self, catalog):
        """ANU must behave identically with and without the oracle."""
        a = ANURandomization(list(SERVERS), hash_family=HashFamily(seed=5))
        b = ANURandomization(list(SERVERS), hash_family=HashFamily(seed=5))
        pa = a.initial_placement(catalog, knowledge(catalog))
        pb = b.initial_placement(catalog, None)
        assert pa == pb
        reps = reports({0: 10.0, 1: 3.0, 2: 1.0, 3: 0.7, 4: 0.4})
        ma = a.rebalance(ctx(catalog, reps, with_knowledge=True))
        mb = b.rebalance(ctx(catalog, reps, with_knowledge=False))
        assert [(m.fileset, m.source, m.target) for m in ma] == [
            (m.fileset, m.source, m.target) for m in mb
        ]

    def test_state_scales_with_servers_not_filesets(self, catalog):
        policy = ANURandomization(list(SERVERS))
        policy.initial_placement(catalog, None)
        assert policy.shared_state_entries() < len(catalog)

    def test_membership_hooks(self, catalog):
        policy = ANURandomization(list(SERVERS))
        policy.initial_placement(catalog, None)
        moves = policy.server_failed(2)
        assert moves and all(m.target != 2 for m in moves)
        moves = policy.server_added(2)
        assert any(m.target == 2 for m in moves)

