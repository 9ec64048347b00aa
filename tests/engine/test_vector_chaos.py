"""Array-native chaos on the vectorized path.

The vectorized fault layer must reproduce the scalar chaos harness's
*semantics* — same guards, same detection instants, same conservation
guarantees — while running entirely on compiled timelines and masked
arrays. These tests pin:

* determinism: one ``(seed, schedule)`` → one chaos fingerprint;
* conservation: every injected request is completed or classified at
  the horizon (``requests_lost == 0``), under every sweep policy;
* scalar/vector parity: the identical schedule applied through the
  scalar injector and the compiled timeline yields identical applied
  logs and failure timelines, with zero invariant violations on both;
* recovery mechanics: orphan re-drives, straggler slowdown/restore,
  and churn re-location all leave the audit clean.
"""

from __future__ import annotations

import pytest

from repro.cluster.cache import CacheConfig
from repro.engine import (
    ChaosConfig,
    ClusterConfig,
    ExperimentSpec,
    VectorChaosFaultLayer,
    VectorizedClientPath,
)
from repro.experiments.chaos import run_chaos
from repro.experiments.scale import make_scale_policy, scale_powers
from repro.faults import chaos_fingerprint, random_schedule
from repro.faults.invariants import ChaosInvariantError
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule
from repro.workloads.scale import ScaleConfig, generate_scale

from .conftest import behaviour_chaos_fingerprint, behaviour_fingerprint

POLICIES = ("anu", "chbl", "jsq2")


def vector_chaos_run(
    policy_name="anu",
    seed=3,
    n_servers=5,
    n_filesets=50,
    n_requests=4_000,
    duration=600.0,
    fault_rate=0.02,
    schedule=None,
    chaos=None,
):
    """One small vectorized chaos run (the chaos-scale cell, miniature)."""
    powers = scale_powers(n_servers)
    chaos = chaos or ChaosConfig(seed=seed)
    if schedule is None:
        schedule = random_schedule(
            seed=seed,
            duration=duration,
            server_ids=list(powers),
            fault_rate=fault_rate,
            min_outage=max(30.0, 3.0 * chaos.detection_latency_bound),
        )
    return vector_engine(
        policy_name, seed, n_servers, n_filesets, n_requests, duration,
        faults=VectorChaosFaultLayer(schedule=schedule, chaos=chaos),
    ).run_chaos()


def vector_engine(
    policy_name, seed, n_servers, n_filesets, n_requests, duration, faults=None
):
    """The miniature cell's engine; ``faults=None`` is the fault-free path."""
    powers = scale_powers(n_servers)
    workload = generate_scale(
        ScaleConfig(
            n_filesets=n_filesets,
            target_requests=n_requests,
            duration=duration,
            total_capacity=sum(powers.values()),
        ),
        seed=seed,
    )
    return ExperimentSpec(
        workload=workload.fork(),
        policy=make_scale_policy(policy_name, list(powers)),
        config=ClusterConfig(
            server_powers=powers,
            tuning_interval=60.0,
            cache=CacheConfig(flush_work_scale=0.0, cold_factor=1.0, warmup_time=0.0),
            supply_knowledge=False,
        ),
        client_path=VectorizedClientPath(),
        faults=faults,
    ).build()


class TestDeterminism:
    def test_same_seed_same_fingerprint(self):
        a = vector_chaos_run(policy_name="anu", seed=3)
        b = vector_chaos_run(policy_name="anu", seed=3)
        assert chaos_fingerprint(a) == chaos_fingerprint(b)

    def test_seed_changes_fingerprint(self):
        a = vector_chaos_run(policy_name="anu", seed=3)
        b = vector_chaos_run(policy_name="anu", seed=4)
        assert chaos_fingerprint(a) != chaos_fingerprint(b)

    def test_policies_share_schedule_but_not_fingerprint(self):
        runs = {name: vector_chaos_run(policy_name=name, seed=3) for name in POLICIES}
        assert len({chaos_fingerprint(r) for r in runs.values()}) == len(POLICIES)
        # Same compiled timeline underneath.
        assert len({r.faults_injected for r in runs.values()}) == 1


class TestPinnedFingerprints:
    """Golden digests of the miniature cells on the vectorized path.

    The cohort drain and the moment landing are held to bit-for-bit
    identity, not to float tolerance: a change that moves one latency,
    one tally moment or one window sum by one ulp flips these. The cells
    mix server segments shorter and longer than the drain's padded-pass
    cut, so both drain paths are pinned.
    """

    CHAOS = {
        "anu": "22a05aaf1777afc5261094f5739d7c3062164dc4975f3c5ff2459a4eef1a77b4",
        "chbl": "d7c7da976523c11f5e314c22a38b81662452d15cd24f14844362cc270b2d44fa",
    }
    FAULT_FREE = "2dad4c5b43bd45c83ee6403a47f918ce50efa981157ddeb6ba9c9e88c01e1373"
    #: Behaviour pins (event count zeroed) and event counts of the same runs.
    CHAOS_BEHAVIOUR = {
        "anu": "ebc87a28273c08cb3b26398e6551b95523c938f96920193cb452b8585ba5d7ff",
        "chbl": "92b0a1d426979b92fcc13aad6316c5be810594ced53ad49cf98b9a3e1ce08fb0",
    }
    CHAOS_EVENTS = {"anu": 22, "chbl": 22}
    FAULT_FREE_BEHAVIOUR = "188c2df166d6c068dd4f3929acd6cca35ce454b892b03252cb80ea3e71f58e50"
    FAULT_FREE_EVENTS = 22

    @pytest.mark.parametrize("policy_name", sorted(CHAOS))
    def test_chaos_fingerprint_pinned(self, policy_name):
        result = vector_chaos_run(policy_name=policy_name, seed=3)
        assert behaviour_chaos_fingerprint(result) == self.CHAOS_BEHAVIOUR[policy_name]
        assert result.base.events_processed == self.CHAOS_EVENTS[policy_name]
        assert chaos_fingerprint(result) == self.CHAOS[policy_name]

    def test_fault_free_fingerprint_pinned(self):
        from repro.experiments.cache import result_fingerprint

        result = vector_engine("anu", 3, 5, 50, 4_000, 600.0).run()
        assert behaviour_fingerprint(result) == self.FAULT_FREE_BEHAVIOUR
        assert result.events_processed == self.FAULT_FREE_EVENTS
        assert result_fingerprint(result) == self.FAULT_FREE


class TestConservation:
    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_zero_violations_and_classified_horizon(self, policy_name):
        result = vector_chaos_run(policy_name=policy_name, seed=3)
        assert result.faults_injected > 0  # the run actually hurt
        assert result.invariant_checks > 0
        assert result.invariant_violations == 0
        assert result.requests_failed == 0
        assert result.requests_injected == (
            result.requests_completed + result.requests_in_flight
        )
        # The in-flight remainder is fully classified, nothing lost.
        assert result.requests_in_flight == (
            result.requests_in_flight_queued + result.requests_in_flight_backoff
        )
        assert result.requests_lost == 0

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_detection_within_analytic_bound(self, policy_name):
        result = vector_chaos_run(policy_name=policy_name, seed=3)
        assert result.detection_latencies  # something was declared
        assert max(result.detection_latencies) <= result.detection_latency_bound + 1e-9
        assert result.failure_declarations == len(
            [r for r in result.failures if r.t_detect is not None]
        )


class TestRecoveryMechanics:
    def test_crash_orphans_are_redriven_not_lost(self):
        schedule = FaultSchedule(
            (FaultEvent(time=100.0, kind=FaultKind.CRASH, target=1, duration=120.0),)
        )
        result = vector_chaos_run(schedule=schedule, seed=2)
        assert result.faults_injected == 1
        assert result.failure_declarations == 1
        assert result.recovery_declarations == 1
        # The crash stranded queued work; every orphan was re-driven.
        assert result.timeouts > 0
        assert result.retries >= result.timeouts
        assert result.requests_lost == 0
        assert result.invariant_violations == 0

    def test_straggler_slowdown_and_restore(self):
        schedule = FaultSchedule(
            (
                FaultEvent(
                    time=100.0, kind=FaultKind.STRAGGLE, target=4,
                    duration=200.0, params=(0.25,),
                ),
            )
        )
        result = vector_chaos_run(schedule=schedule, seed=2)
        assert result.faults_injected == 1
        # A straggler is not a failure: no declarations, no evictions.
        assert result.failure_declarations == 0
        assert result.timeouts == 0
        assert result.requests_lost == 0
        assert result.invariant_violations == 0
        baseline = vector_chaos_run(schedule=FaultSchedule(), seed=2)
        slow = result.base.aggregate_mean_latency
        assert slow > baseline.base.aggregate_mean_latency

    def test_partition_keeps_data_plane_draining(self):
        schedule = FaultSchedule(
            (
                FaultEvent(
                    time=100.0, kind=FaultKind.PARTITION, target=(2,), duration=120.0
                ),
            )
        )
        result = vector_chaos_run(schedule=schedule, seed=2)
        # Control-plane isolation only: the layout evicts and re-admits,
        # but the server never crashed, so nothing was orphaned.
        assert result.failure_declarations == 1
        assert result.recovery_declarations == 1
        assert result.timeouts == 0
        assert result.requests_lost == 0
        assert result.invariant_violations == 0

    def test_empty_schedule_matches_null_path_counts(self):
        result = vector_chaos_run(schedule=FaultSchedule(), seed=2)
        assert result.faults_injected == 0
        assert result.failures == []
        assert result.retries == result.redirects == result.timeouts == 0
        assert result.requests_lost == 0
        assert result.invariant_violations == 0


class TestInvariantViolations:
    """Each vector invariant fires on the state it guards.

    A clean chaos cell runs to the horizon; one piece of its array state
    is then tampered with, and the next sweep must name the broken
    invariant in a replayable artifact.
    """

    @staticmethod
    def finished_cell():
        layer = VectorChaosFaultLayer(schedule=FaultSchedule(), chaos=ChaosConfig(seed=2))
        engine = vector_engine("anu", 2, 5, 50, 4_000, 600.0, faults=layer)
        result = engine.run_chaos()
        assert result.invariant_violations == 0
        layer.checker.check("clean", final=True)
        return engine, layer

    def assert_violates(self, layer, invariant):
        with pytest.raises(ChaosInvariantError, match=invariant) as caught:
            layer.checker.check("tampered")
        assert caught.value.artifact.invariant == invariant
        assert caught.value.artifact.seed == 2

    def test_request_counter(self):
        engine, layer = self.finished_cell()
        engine.driver._submitted += 1
        self.assert_violates(layer, "request-conservation")

    def test_server_moment_counter(self):
        engine, layer = self.finished_cell()
        engine.driver._servers[0].completed_requests += 1
        self.assert_violates(layer, "no-lost-moments")

    def test_evicted_slot_keeps_its_file_sets(self):
        engine, layer = self.finished_cell()
        slot = int(engine.driver._assignment()[0])
        layer.admitted[slot] = False
        self.assert_violates(layer, "assignment-respects-masks")

    def test_layout_loses_an_admitted_member(self):
        engine, layer = self.finished_cell()
        engine.policy.layout.remove_server(layer.server_ids[0])
        self.assert_violates(layer, "layout-covers-alive-set")


class TestScalarVectorParity:
    def test_same_schedule_same_fault_semantics(self):
        # Identical schedule, identical five-server cluster ids. The
        # scalar path runs the reactive injector + live heartbeat
        # monitor; the vector path replays the compiled timeline. The
        # observable fault semantics must agree exactly.
        seed = 5
        duration = 600.0
        schedule = random_schedule(
            seed=seed,
            duration=duration,
            server_ids=list(scale_powers(5)),
            fault_rate=0.01,
            min_outage=30.0,
            # Kinds whose victims resolve identically on both paths
            # (delegate-crash elects, link-faults need a network).
            kinds=(FaultKind.CRASH, FaultKind.PARTITION, FaultKind.STRAGGLE),
        )
        scalar = run_chaos(seed=seed, scale=0.05, schedule=schedule)
        vector = vector_chaos_run(
            policy_name="anu", seed=seed, duration=duration, schedule=schedule
        )
        assert scalar.applied == vector.applied
        assert scalar.faults_injected == vector.faults_injected
        assert scalar.faults_skipped >= vector.faults_skipped - (
            # Link faults are analytic skips on the vector path only.
            sum(1 for e in schedule if e.kind == FaultKind.LINK_FAULTS)
        )
        assert [
            (r.server_id, r.kind, r.t_fault, r.t_detect, r.t_heal, r.t_readmit)
            for r in scalar.failures
        ] == [
            (r.server_id, r.kind, r.t_fault, r.t_detect, r.t_heal, r.t_readmit)
            for r in vector.failures
        ]
        assert scalar.invariant_violations == vector.invariant_violations == 0
        assert scalar.requests_lost == vector.requests_lost == 0


class TestMaskedArraysStayUnloaded:
    """A vector drive never imports ``numpy.ma``: ``np.unique`` does on
    its first call (9–16 ms cold), so the drive keeps to sorts, adjacent
    compares and bincounts. Each cell runs in a fresh interpreter."""

    @pytest.mark.parametrize(
        "cell",
        [
            "vector_engine('anu', 3, 5, 50, 4_000, 600.0).run()",
            "vector_engine('chbl', 3, 5, 50, 4_000, 600.0).run()",
            "vector_chaos_run(seed=2, schedule=FaultSchedule((FaultEvent("
            "time=100.0, kind=FaultKind.CRASH, target=1, duration=120.0),)))",
        ],
        ids=["fault-free-anu", "fault-free-chbl", "chaos-crash"],
    )
    def test_cell_leaves_numpy_ma_unloaded(self, cell, run_fresh):
        out = run_fresh(
            "import sys\n"
            "from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule\n"
            "from tests.engine.test_vector_chaos import vector_chaos_run, vector_engine\n"
            f"result = {cell}\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        assert out.strip() == "False"

