"""Scenario tests: multi-phase stories the paper's introduction motivates.

These are longer integration narratives — "clusters on demand" (§1),
SLA-backed consistency (§5.2.2), and the full namespace-to-disk path
(§3) — each driving several subsystems together.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import AccessClient, DiskArray, FileServer, Namespace
from repro.core import ANUManager, HashFamily
from repro.engine import ClusterConfig, ExperimentSpec
from repro.metrics import SLA, evaluate_sla, steady_state_means
from repro.policies import ANURandomization
from repro.sim import Simulator
from repro.workloads import SyntheticConfig, generate_synthetic

POWERS = {0: 1.0, 1: 3.0, 2: 5.0, 3: 7.0, 4: 9.0}


class TestClustersOnDemand:
    """§1: 'the same server might be deployed in different clusters at
    different times during the same day or hours.'"""

    def test_server_lends_out_and_returns(self):
        wl = generate_synthetic(
            SyntheticConfig(
                n_filesets=20, duration=3600.0, target_requests=9000,
                total_capacity=25.0,
            ),
            seed=21,
        )
        policy = ANURandomization(list(POWERS), hash_family=HashFamily(seed=0))
        sim = ExperimentSpec(wl, policy, ClusterConfig(server_powers=POWERS)).build()
        # The big server leaves for another cluster for a third of the day.
        sim.schedule_failure(1200.0, 4)
        sim.schedule_recovery(2400.0, 4)
        res = sim.run()

        # Service continuity throughout the lease.
        assert res.completed >= 0.95 * res.submitted
        # While away, others covered; after return, it serves again.
        t4 = res.server_latency[4]
        away_window = t4.window(1320.0, 2400.0)[1]
        assert np.all(np.isnan(away_window)), "server 4 served while leased out"
        back = t4.window(2520.0, 3600.0)[1]
        assert np.any(~np.isnan(back)), "server 4 never resumed"
        policy.manager.layout.check_invariants()

    def test_fleet_turnover(self):
        """Replace the whole fleet one server at a time mid-run; the
        namespace never loses an owner."""
        mgr = ANUManager(server_ids=[f"old{i}" for i in range(4)])
        mgr.register_filesets([f"/fs{i}" for i in range(40)])
        for i in range(4):
            mgr.add_server(f"new{i}")
            mgr.remove_server(f"old{i}")
            mgr.layout.check_invariants()
        live = set(mgr.layout.server_ids)
        assert live == {f"new{i}" for i in range(4)}
        assert all(sid in live for sid in mgr.assignments.values())


class TestSLABackedConsistency:
    def test_anu_meets_sla_that_simple_cannot(self):
        """§5.2.2 operationalized: after balance, an SLA holds on every
        busy server under ANU while static placement breaks it."""
        from repro.policies import SimpleRandomization

        cfg = SyntheticConfig(
            n_filesets=20, duration=3600.0, target_requests=9000, total_capacity=25.0
        )
        sla = SLA(latency_target=30.0, attainment=0.85)
        reports = {}
        for name, factory in (
            ("anu", lambda: ANURandomization(list(POWERS), hash_family=HashFamily(seed=0))),
            ("simple", lambda: SimpleRandomization(list(POWERS), hash_family=HashFamily(seed=0))),
        ):
            wl = generate_synthetic(cfg, seed=22)
            sim = ExperimentSpec(
                wl.fork(), factory(), ClusterConfig(server_powers=POWERS)
            ).build()
            reports[name] = evaluate_sla(sim.run(), sla, min_share=0.05)
        assert reports["anu"].global_met
        assert not reports["simple"].consistent
        assert reports["anu"].global_attainment > reports["simple"].global_attainment


class TestFullAccessPath:
    def test_namespace_to_disk(self):
        """A client path: resolve against the namespace, metadata to the
        ANU-placed server, data from the striped disks."""
        env = Simulator()
        ns = Namespace.balanced(12)
        mgr = ANUManager(server_ids=list(POWERS), hash_family=HashFamily(seed=0))
        mgr.register_filesets(ns.fileset_roots)
        servers = {sid: FileServer(env, sid, p) for sid, p in POWERS.items()}
        disks = DiskArray(env, bandwidths=[200.0] * 4)

        def route(request):
            return servers[mgr.assignment_of(request.fileset)]

        client = AccessClient(env, route=route, disks=disks)
        for i in range(60):
            path = ns.fileset_roots[i % 12] + f"/file{i}"
            client.access(ns.resolve(path), meta_work=1.0, data_size=128.0)
        env.run(until=300.0)
        assert client.access_latency.count == 60
        assert client.access_latency.mean < 30.0
        assert 0.0 < client.metadata_share.mean < 1.0
