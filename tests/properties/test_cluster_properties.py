"""Cluster-level property tests: conservation and churn robustness."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cluster import CacheConfig
from repro.core import HashFamily
from repro.engine import ClusterConfig, ExperimentSpec
from repro.policies import ANURandomization
from repro.workloads import SyntheticConfig, generate_synthetic

POWERS = {0: 1.0, 1: 3.0, 2: 5.0, 3: 7.0, 4: 9.0}


def small_workload(seed: int):
    return generate_synthetic(
        SyntheticConfig(
            n_filesets=10, duration=600.0, target_requests=800, total_capacity=25.0
        ),
        seed=seed,
    )


class TestConservation:
    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=10, deadline=None)
    def test_requests_are_conserved(self, seed):
        """submitted == completed + still-queued/in-service; nothing is
        silently lost or duplicated, whatever the workload draw."""
        wl = small_workload(seed)
        sim = ExperimentSpec(
            wl,
            ANURandomization(list(POWERS), hash_family=HashFamily(seed=0)),
            ClusterConfig(server_powers=POWERS),
        ).build()
        res = sim.run()
        assert res.submitted == len(wl)
        in_queues = sum(s.queue_length for s in sim.servers.values())
        # in-service requests are neither completed nor queued; there is
        # at most one per server
        in_service_max = len(POWERS)
        assert 0 <= res.submitted - res.completed - in_queues <= in_service_max

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=8, deadline=None)
    def test_per_server_counts_sum_to_completed(self, seed):
        wl = small_workload(seed)
        sim = ExperimentSpec(
            wl,
            ANURandomization(list(POWERS), hash_family=HashFamily(seed=0)),
            ClusterConfig(server_powers=POWERS),
        ).build()
        res = sim.run()
        assert sum(res.server_requests.values()) == res.completed
        assert res.all_latencies.size == res.completed
        assert (res.all_latencies >= 0).all()


class TestChurnRobustness:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["fail", "recover"]),
                st.integers(min_value=1, max_value=4),
                st.floats(min_value=60.0, max_value=520.0),
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=12, deadline=None)
    def test_arbitrary_churn_schedules_never_corrupt(self, events):
        """Any (valid) fail/recover schedule leaves invariants intact
        and the cluster still serving."""
        wl = small_workload(3)
        policy = ANURandomization(list(POWERS), hash_family=HashFamily(seed=0))
        sim = ExperimentSpec(wl, policy, ClusterConfig(server_powers=POWERS)).build()

        # Sanitize into a *valid* schedule: fail only live, recover only
        # failed, never fail the last server.
        state = {sid: "up" for sid in POWERS}
        planned = []
        for kind, sid, t in sorted(events, key=lambda e: e[2]):
            if kind == "fail" and state[sid] == "up":
                if sum(1 for v in state.values() if v == "up") <= 2:
                    continue
                state[sid] = "down"
                planned.append(("fail", sid, t))
            elif kind == "recover" and state[sid] == "down":
                state[sid] = "up"
                planned.append(("recover", sid, t))
        last_t = 0.0
        for kind, sid, t in planned:
            t = max(t, last_t + 1.0)  # keep event order strict
            last_t = t
            if kind == "fail":
                sim.schedule_failure(t, sid)
            else:
                sim.schedule_recovery(t, sid)

        res = sim.run()
        policy.manager.layout.check_invariants()
        # the live servers at the end serve everything registered
        live = set(policy.manager.layout.server_ids)
        assert all(sid in live for sid in policy.assignments().values())
        assert res.completed > 0
