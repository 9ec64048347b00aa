"""The assembly seam: ``ExperimentSpec.controller`` end to end.

One seam, every consumer: the spec injects a controller into
the policy at assembly; the distributed control plane forks the same
controller per round. These tests run tiny simulations through the
seam and check the pieces line up.
"""

from __future__ import annotations

import pytest

from repro.cluster.cache import CacheConfig
from repro.control import BrownoutController, PIController, make_controller
from repro.core.hashing import HashFamily
from repro.engine import ClusterConfig, DistributedControlPlane, ExperimentSpec
from repro.experiments.runner import run_system
from repro.experiments.config import ExperimentConfig
from repro.policies import ANURandomization, SimpleRandomization
from repro.workloads import SyntheticConfig, generate_synthetic

POWERS = {0: 1.0, 1: 3.0, 2: 5.0, 3: 7.0, 4: 9.0}


def tiny_workload(seed=5):
    return generate_synthetic(
        SyntheticConfig(
            n_filesets=15,
            duration=600.0,
            target_requests=800,
            total_capacity=25.0,
        ),
        seed=seed,
    )


def config():
    return ClusterConfig(
        server_powers=dict(POWERS),
        tuning_interval=60.0,
        cache=CacheConfig(flush_work_scale=0.0, cold_factor=1.0, warmup_time=0.0),
        supply_knowledge=False,
    )


class TestBuilderInjection:
    def test_builder_controller_reaches_policy(self):
        policy = ANURandomization(list(POWERS), hash_family=HashFamily(seed=0))
        engine = ExperimentSpec(
            tiny_workload(), policy, config(), controller=BrownoutController()
        ).build()
        assert isinstance(policy.controller, BrownoutController)
        result = engine.run()
        assert result.completed > 0

    def test_spec_forks_per_build(self):
        """Two builds of one spec must not share controller state."""
        policy = ANURandomization(list(POWERS), hash_family=HashFamily(seed=0))
        spec = ExperimentSpec(tiny_workload(), policy, config(), controller=PIController())
        spec.build()
        first = policy.controller
        spec.build()
        assert policy.controller is not first

    def test_policy_without_seam_is_rejected(self):
        policy = SimpleRandomization(list(POWERS), hash_family=HashFamily(seed=0))
        spec = ExperimentSpec(tiny_workload(), policy, config(), controller=PIController())
        with pytest.raises(ValueError, match="pluggable controller"):
            spec.build()


class TestRunnerPassthrough:
    def test_run_system_accepts_controller(self):
        cfg = ExperimentConfig(powers=dict(POWERS), tuning_interval=60.0)
        result = run_system(
            "anu",
            tiny_workload(),
            cfg,
            controller=make_controller("pole"),
        )
        assert result.completed > 0


class TestDistributedStatefulFailover:
    def test_stateful_controller_survives_delegate_crash(self):
        """A PI controller (replicated integrator) through the
        message-level control plane, with a mid-run delegate crash:
        the run completes and the divergence assertion inside
        DistributedTuningService holds every round."""
        policy = ANURandomization(
            list(POWERS),
            hash_family=HashFamily(seed=0),
            controller=PIController(),
        )
        engine = ExperimentSpec(
            tiny_workload(seed=9),
            policy,
            config(),
            control=DistributedControlPlane(delegate_crashes=[150.0]),
        ).build()
        result = engine.run()
        assert result.completed > 0
        assert engine.control.failovers >= 1
