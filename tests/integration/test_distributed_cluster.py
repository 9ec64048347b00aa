"""End-to-end validation of the §4 delegate fail-over claim.

The same workload is run three ways: direct tuning (the figure path),
through the message-level control plane with no faults, and through the
control plane with delegate crashes. Because the delegate is stateless,
all three must produce *identical placement decisions* — the
experiment-level restatement of "the next elected delegate runs the
same protocol with the same information".
"""

from __future__ import annotations

import pytest

from repro.core import HashFamily
from repro.distributed import MessageKind
from repro.engine import ClusterConfig, DistributedControlPlane, ExperimentSpec
from repro.policies import ANURandomization, SimpleRandomization
from repro.workloads import SyntheticConfig, generate_synthetic

POWERS = {0: 1.0, 1: 3.0, 2: 5.0, 3: 7.0, 4: 9.0}


@pytest.fixture(scope="module")
def workload():
    return generate_synthetic(
        SyntheticConfig(
            n_filesets=20, duration=1800.0, target_requests=5000, total_capacity=25.0
        ),
        seed=12,
    )


def run_direct(workload):
    policy = ANURandomization(list(POWERS), hash_family=HashFamily(seed=0))
    sim = ExperimentSpec(
        workload.fork(), policy, ClusterConfig(server_powers=POWERS)
    ).build()
    return sim.run(), policy, sim


def run_distributed(workload, crashes=None):
    policy = ANURandomization(list(POWERS), hash_family=HashFamily(seed=0))
    sim = ExperimentSpec(
        workload.fork(),
        policy,
        ClusterConfig(server_powers=POWERS),
        control=DistributedControlPlane(delegate_crashes=crashes),
    ).build()
    return sim.run(), policy, sim


class TestEquivalence:
    def test_control_plane_matches_direct_path(self, workload):
        direct_res, direct_policy, _ = run_direct(workload)
        dist_res, dist_policy, dist_sim = run_distributed(workload)
        assert direct_policy.assignments() == dist_policy.assignments()
        assert direct_res.total_moves == dist_res.total_moves
        assert direct_res.aggregate_mean_latency == pytest.approx(
            dist_res.aggregate_mean_latency
        )
        assert dist_sim.failovers == 0

    def test_delegate_crashes_change_nothing_but_the_delegate(self, workload):
        baseline_res, baseline_policy, _ = run_distributed(workload)
        crashed_res, crashed_policy, crashed_sim = run_distributed(
            workload, crashes=[400.0, 900.0]
        )
        assert crashed_sim.failovers == 2
        assert len(crashed_sim.delegate_history) >= 2
        # The statelessness claim, end to end: the cluster converges to
        # the identical placement. (Rounds during which the crashed
        # node was unreachable legitimately lacked its report — the
        # delegate is stateless, not omniscient — so transient latency
        # may differ slightly; the *decisions* from equal inputs, and
        # hence the converged state, must not.)
        assert baseline_policy.assignments() == crashed_policy.assignments()
        assert baseline_res.total_moves == crashed_res.total_moves
        assert crashed_res.aggregate_mean_latency == pytest.approx(
            baseline_res.aggregate_mean_latency, rel=0.05
        )

    def test_crashed_delegate_is_replaced_by_next_highest(self, workload):
        _, _, sim = run_distributed(workload, crashes=[400.0])
        first, second = sim.delegate_history[0], sim.delegate_history[1]
        assert second != first
        assert second == max(sid for sid in POWERS if sid != first)


class TestControlTraffic:
    def test_per_round_traffic_is_order_k(self, workload):
        _, _, sim = run_distributed(workload)
        traffic = sim.control_traffic()
        rounds = max(1, sum(1 for m in sim.movement if m.kind == "tune"))
        k = len(POWERS)
        assert traffic[MessageKind.REPORT] == rounds * k
        # mapping broadcast: delegate -> everyone else
        assert traffic[MessageKind.MAPPING] == rounds * (k - 1)
        # shed notifications bounded by total moves
        total_moves = sum(m.moves for m in sim.movement)
        assert traffic[MessageKind.SHED_NOTIFY] <= total_moves


class TestGuards:
    def test_non_anu_policy_rejected(self, workload):
        with pytest.raises(TypeError):
            ExperimentSpec(
                workload.fork(),
                SimpleRandomization(list(POWERS)),
                ClusterConfig(server_powers=POWERS),
                control=DistributedControlPlane(),
            ).build()
