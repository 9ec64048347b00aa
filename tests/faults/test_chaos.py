"""End-to-end chaos harness: determinism, detection, recovery, audit."""

from __future__ import annotations

import pytest

from repro.core import HashFamily
from repro.engine import ChaosConfig, ClusterConfig, ExperimentSpec, chaos_layers
from repro.faults import (
    ChaosInvariantError,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    chaos_fingerprint,
)
from repro.policies import ANURandomization
from repro.workloads import SyntheticConfig, generate_synthetic

POWERS = {0: 1.0, 1: 3.0, 2: 5.0, 3: 7.0, 4: 9.0}

FULL_SCHEDULE = FaultSchedule(
    events=(
        FaultEvent(60.0, FaultKind.CRASH, target=4, duration=60.0),
        FaultEvent(150.0, FaultKind.DELEGATE_CRASH, duration=50.0),
        FaultEvent(250.0, FaultKind.PARTITION, target=(2,), duration=40.0),
        FaultEvent(320.0, FaultKind.STRAGGLE, target=3, duration=60.0, params=(0.25,)),
        FaultEvent(400.0, FaultKind.LINK_FAULTS, duration=50.0, params=(0.05, 0.02, 0.002)),
    )
)


@pytest.fixture(scope="module")
def workload():
    return generate_synthetic(
        SyntheticConfig(
            n_filesets=20, duration=600.0, target_requests=2000, total_capacity=25.0
        ),
        seed=12,
    )


def make_sim(workload, schedule=FULL_SCHEDULE, seed=7):
    policy = ANURandomization(list(POWERS), hash_family=HashFamily(seed=0))
    return ExperimentSpec(
        workload.fork(),
        policy,
        ClusterConfig(server_powers=POWERS),
        **chaos_layers(schedule, ChaosConfig(seed=seed)),
    ).build()


@pytest.fixture(scope="module")
def result(workload):
    return make_sim(workload).run_chaos()


class TestFullRun:
    def test_every_fault_kind_applied(self, result):
        kinds = {kind for _, kind, _ in result.applied}
        assert kinds == {
            FaultKind.CRASH,
            FaultKind.DELEGATE_CRASH,
            FaultKind.PARTITION,
            FaultKind.STRAGGLE,
            FaultKind.LINK_FAULTS,
        }
        assert result.faults_injected == 5
        assert result.faults_skipped == 0

    def test_zero_invariant_violations(self, result):
        assert result.invariant_violations == 0
        assert result.invariant_checks > 10  # periodic + per-reconfiguration

    def test_detection_latency_within_bound(self, result):
        assert result.detection_latencies  # crashes were detected
        assert all(
            0 < lat <= result.detection_latency_bound
            for lat in result.detection_latencies
        )

    def test_failure_timelines_ordered(self, result):
        for rec in result.failures:
            if rec.t_detect is not None:
                assert rec.t_detect >= rec.t_fault
            if rec.t_heal is not None:
                assert rec.t_heal >= rec.t_fault
            if rec.t_readmit is not None and rec.t_heal is not None:
                assert rec.t_readmit >= rec.t_heal

    def test_request_conservation_at_horizon(self, result):
        assert result.requests_injected == (
            result.requests_completed + result.requests_failed + result.requests_in_flight
        )
        assert result.requests_completed > 0

    def test_client_hardening_exercised(self, result):
        # The crash forces retries; the failover redirects at least one.
        assert result.retries > 0
        assert result.retries_per_request > 0
        assert result.unavailability > 0

    def test_detector_recovered_every_declared_failure(self, result):
        assert result.failure_declarations == result.recovery_declarations
        assert result.failure_declarations >= 2  # crash + delegate crash


class TestClusterStateAfterRun:
    def test_all_servers_back_in_layout(self, workload):
        sim = make_sim(workload)
        sim.run_chaos()
        assert sorted(sim.policy.manager.layout.server_ids) == sorted(POWERS)

    def test_straggler_power_restored(self, workload):
        sim = make_sim(workload)
        sim.run_chaos()
        for server in sim.servers.values():
            assert server.power == server.base_power
            assert not server.failed

    def test_delegate_failover_happened(self, workload):
        sim = make_sim(workload)
        sim.run_chaos()
        assert sim.failovers >= 1
        assert len(sim.delegate_history) >= 2


class TestDeterminism:
    def test_same_seed_bit_identical(self, workload):
        a = chaos_fingerprint(make_sim(workload).run_chaos())
        b = chaos_fingerprint(make_sim(workload).run_chaos())
        assert a == b

    def test_schedule_is_part_of_identity(self, workload):
        quiet = FaultSchedule(
            events=(FaultEvent(60.0, FaultKind.CRASH, target=4, duration=60.0),)
        )
        a = chaos_fingerprint(make_sim(workload).run_chaos())
        b = chaos_fingerprint(make_sim(workload, schedule=quiet).run_chaos())
        assert a != b


class TestMutationEndToEnd:
    def test_mid_run_corruption_fails_fast_with_artifact(self, workload):
        """A deliberately-planted orphan assignment is caught by the
        next invariant sweep and reported with the replay pair."""
        sim = make_sim(workload)

        def corrupt():
            name = next(iter(sim.policy.manager._assignments))
            sim.policy.manager._assignments[name] = "ghost-server"

        sim.env.schedule_at(97.0, corrupt)
        with pytest.raises(ChaosInvariantError) as excinfo:
            sim.run_chaos()
        artifact = excinfo.value.artifact
        assert artifact.invariant == "orphaned-fileset"
        assert artifact.seed == 7
        assert artifact.schedule == FULL_SCHEDULE
        # Caught by the continuous audit, not at the end of the run.
        assert artifact.time < 600.0

    def test_guard_skips_crash_that_would_empty_cluster(self, workload):
        # Crash everything at once: the guard must keep two survivors.
        schedule = FaultSchedule(
            events=tuple(
                FaultEvent(60.0 + i, FaultKind.CRASH, target=sid, duration=60.0)
                for i, sid in enumerate(POWERS)
            )
        )
        sim = make_sim(workload, schedule=schedule)
        res = sim.run_chaos()
        assert res.faults_skipped == 2
        assert res.invariant_violations == 0
