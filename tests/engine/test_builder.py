"""ExperimentSpec assembly semantics and the chaos_layers composition."""

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
    chaos_layers,
)
from repro.engine.record import ChaosResult
from repro.experiments.cache import result_fingerprint
from repro.policies import (
    ANURandomization,
    DynamicPrescient,
    TableBinPacking,
)

from .conftest import POWERS


def anu_policy():
    return ANURandomization(list(POWERS), hash_family=HashFamily(seed=0))


class TestValidation:
    def test_chaos_conflicts_with_explicit_layers(self, tiny_workload):
        """A second control layer beside the chaos harness is Python's
        own duplicate-keyword error, before anything is assembled."""
        with pytest.raises(TypeError, match="control"):
            ExperimentSpec(
                tiny_workload.fork(),
                anu_policy(),
                ClusterConfig(server_powers=POWERS),
                control=DistributedControlPlane(),
                **chaos_layers(),
            )


class TestAssembly:
    def test_spec_round_trip(self, tiny_workload):
        """The engine is assembled from exactly the layers the spec holds."""
        spec = ExperimentSpec(
            tiny_workload.fork(),
            anu_policy(),
            ClusterConfig(server_powers=POWERS),
            control=DistributedControlPlane(),
            client_path=HardenedClientPath(),
        )
        assert spec.faults is None
        engine = spec.build()
        assert engine.control is spec.control
        assert engine.client_path is spec.client_path

    def test_chaos_sets_all_three_layers(self, tiny_workload):
        spec = ExperimentSpec(
            tiny_workload.fork(),
            anu_policy(),
            ClusterConfig(server_powers=POWERS),
            **chaos_layers(),
        )
        assert isinstance(spec.control, DistributedControlPlane)
        assert isinstance(spec.client_path, HardenedClientPath)
        assert isinstance(spec.faults, ChaosFaultLayer)
        engine = spec.build()
        assert engine.faults is spec.faults

    def test_chaos_run_returns_chaos_result(self, tiny_workload):
        result = (
            ExperimentSpec(
                tiny_workload.fork(),
                anu_policy(),
                ClusterConfig(server_powers=POWERS),
                **chaos_layers(),
            )
            .build()
            .run_chaos()
        )
        assert isinstance(result, ChaosResult)
        assert result.base.completed > 0

    def test_identical_builds_are_deterministic(self, tiny_workload):
        def one_run():
            return (
                ExperimentSpec(
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
            engine = ExperimentSpec(tiny_workload, policy, config).build()
            engine.run(until=100.0)
            drained = [srv.drain_fileset_work() for srv in engine.servers.values()]
            assert any(drained) is tracked

    def test_average_work_is_built_once(self, tiny_workload):
        engine = ExperimentSpec(
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
