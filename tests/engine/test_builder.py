"""SimulationBuilder / ExperimentSpec assembly semantics."""

from __future__ import annotations

import pytest

from repro.core.hashing import HashFamily
from repro.engine import (
    ChaosFaultLayer,
    ClusterConfig,
    ClusterEngine,
    DistributedControlPlane,
    ExperimentSpec,
    HardenedClientPath,
    ProbeBus,
    SimulationBuilder,
)
from repro.engine.record import ChaosResult, ClusterResult
from repro.experiments.cache import result_fingerprint
from repro.policies import (
    ANURandomization,
    DynamicPrescient,
    SimpleRandomization,
    TableBinPacking,
)

from .conftest import POWERS


def anu_policy():
    return ANURandomization(list(POWERS), hash_family=HashFamily(seed=0))


def simple_policy():
    return SimpleRandomization(list(POWERS), hash_family=HashFamily(seed=0))


class TestValidation:
    def test_missing_triple_is_named(self):
        with pytest.raises(ValueError, match="workload.*config"):
            SimulationBuilder(policy=simple_policy()).spec()

    def test_layer_set_once(self, tiny_workload):
        b = SimulationBuilder(
            tiny_workload.fork(), anu_policy(), ClusterConfig(server_powers=POWERS)
        ).distributed()
        with pytest.raises(ValueError, match="control layer already set"):
            b.distributed()

    def test_chaos_conflicts_with_explicit_layers(self, tiny_workload):
        b = SimulationBuilder(
            tiny_workload.fork(), anu_policy(), ClusterConfig(server_powers=POWERS)
        ).hardened()
        with pytest.raises(ValueError, match="already set"):
            b.chaos()

    def test_bus_set_once(self):
        b = SimulationBuilder().bus(ProbeBus())
        with pytest.raises(ValueError, match="bus.*already set"):
            b.bus(ProbeBus())


class TestAssembly:
    def test_fluent_setters_build_an_engine(self, tiny_workload):
        engine = (
            SimulationBuilder()
            .workload(tiny_workload.fork())
            .policy(simple_policy())
            .config(ClusterConfig(server_powers=POWERS))
            .build()
        )
        assert isinstance(engine, ClusterEngine)
        result = engine.run()
        assert isinstance(result, ClusterResult)
        assert result.completed > 0

    def test_spec_round_trip(self, tiny_workload):
        spec = (
            SimulationBuilder(
                tiny_workload.fork(), anu_policy(), ClusterConfig(server_powers=POWERS)
            )
            .distributed()
            .hardened()
            .spec()
        )
        assert isinstance(spec, ExperimentSpec)
        assert isinstance(spec.control, DistributedControlPlane)
        assert isinstance(spec.client_path, HardenedClientPath)
        assert spec.faults is None
        engine = spec.build()
        assert engine.control is spec.control

    def test_chaos_sets_all_three_layers(self, tiny_workload):
        spec = (
            SimulationBuilder(
                tiny_workload.fork(), anu_policy(), ClusterConfig(server_powers=POWERS)
            )
            .chaos()
            .spec()
        )
        assert isinstance(spec.control, DistributedControlPlane)
        assert isinstance(spec.client_path, HardenedClientPath)
        assert isinstance(spec.faults, ChaosFaultLayer)

    def test_chaos_run_returns_chaos_result(self, tiny_workload):
        result = (
            SimulationBuilder(
                tiny_workload.fork(), anu_policy(), ClusterConfig(server_powers=POWERS)
            )
            .chaos()
            .run()
        )
        assert isinstance(result, ChaosResult)
        assert result.base.completed > 0

    def test_identical_builds_are_deterministic(self, tiny_workload):
        def one_run():
            return (
                SimulationBuilder(
                    tiny_workload.fork(),
                    anu_policy(),
                    ClusterConfig(server_powers=POWERS),
                )
                .build()
                .run()
            )

        assert result_fingerprint(one_run()) == result_fingerprint(one_run())

    def test_only_a_policy_that_reads_fileset_work_gets_it_tracked(self, tiny_workload):
        config = ClusterConfig(server_powers=POWERS)
        for policy, tracked in (
            (anu_policy(), False),
            (TableBinPacking(list(POWERS), hash_family=HashFamily(seed=0)), True),
        ):
            engine = SimulationBuilder(tiny_workload, policy, config).build()
            engine.run(until=100.0)
            drained = [srv.drain_fileset_work() for srv in engine.servers.values()]
            assert any(drained) is tracked

    def test_average_work_is_built_once(self, tiny_workload):
        engine = SimulationBuilder(
            tiny_workload, DynamicPrescient(list(POWERS)), ClusterConfig(server_powers=POWERS)
        ).build()
        first = engine._knowledge(0.0).average_work
        assert engine._knowledge(120.0).average_work is first
        assert set(first) == set(tiny_workload.catalog.names)

    def test_chaos_requires_distributed_control(self, tiny_workload):
        """The fault layer needs the network; direct control has none."""
        with pytest.raises(TypeError, match="DistributedControlPlane"):
            ClusterEngine(
                tiny_workload.fork(),
                anu_policy(),
                ClusterConfig(server_powers=POWERS),
                faults=ChaosFaultLayer(),
            )
