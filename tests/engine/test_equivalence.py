"""Golden fingerprints of the layered engine.

The engine's contract is *bit-identical* replay: assembling an engine
from layers must reproduce the exact event sequence these hard-coded
SHA-256 digests were taken from (one paper-config run per system, one
distributed run, one chaos run).

If an intentional behaviour change ever invalidates the digests, rerun
the recipes below and update the constants — in the same commit as the
change, with the reason in the commit message.
"""

from __future__ import annotations

import pytest

from repro.core.hashing import HashFamily
from repro.engine import ChaosConfig, ClusterConfig, SimulationBuilder
from repro.experiments.cache import result_fingerprint
from repro.experiments.config import paper_config
from repro.experiments.runner import run_system
from repro.faults import FaultEvent, FaultKind, FaultSchedule, chaos_fingerprint
from repro.policies import ANURandomization
from repro.workloads import generate_synthetic

from .conftest import POWERS

#: Digests of the paper-config runs (seed=3, scale=0.02), one per system.
PAPER_GOLD = {
    "simple": "9f10ac545f6fd8562a64a0d09040076df395056d88d47e3685acd59422c824bd",
    "anu": "8b6ce9ec16eb66a8b35500f2323a44627aaa375123f340a679469b5b4873f566",
    "prescient": "037a8f9e8f040cb97fdac87c59c3e18b07bc1b44f19478ffd84461d2ba7ef572",
}

#: Distributed control plane over the golden workload, one delegate crash.
DISTRIBUTED_GOLD = "f550585365e707ad1d28bc33df6025514bc0ceda73787e3eb9071561e1866e9f"

#: Full chaos harness (seed=7) over the golden workload and CHAOS_SCHEDULE.
CHAOS_GOLD = "4366d2401b9dd58786a567f83f6982f1b375ae4c165d367afe306fe9a5689b5c"

#: One fault of every kind, spread over the 600 s golden run.
CHAOS_SCHEDULE = FaultSchedule(
    events=(
        FaultEvent(60.0, FaultKind.CRASH, target=4, duration=60.0),
        FaultEvent(150.0, FaultKind.DELEGATE_CRASH, duration=50.0),
        FaultEvent(250.0, FaultKind.PARTITION, target=(2,), duration=40.0),
        FaultEvent(320.0, FaultKind.STRAGGLE, target=3, duration=60.0, params=(0.25,)),
        FaultEvent(
            400.0, FaultKind.LINK_FAULTS, duration=50.0, params=(0.05, 0.02, 0.002)
        ),
    )
)


def anu_policy():
    return ANURandomization(list(POWERS), hash_family=HashFamily(seed=0))


class TestPaperGoldens:
    @pytest.mark.parametrize("system", sorted(PAPER_GOLD))
    def test_run_system_matches_golden(self, system):
        config = paper_config(seed=3, scale=0.02)
        workload = generate_synthetic(config.synthetic_config(), seed=3)
        result = run_system(system, workload.fork(), config)
        assert result_fingerprint(result) == PAPER_GOLD[system]


class TestDistributedGolden:
    def test_builder_matches_golden(self, golden_workload):
        engine = (
            SimulationBuilder(
                golden_workload.fork(),
                anu_policy(),
                ClusterConfig(server_powers=POWERS),
            )
            .distributed(delegate_crashes=[200.0])
            .build()
        )
        result = engine.run()
        assert result_fingerprint(result) == DISTRIBUTED_GOLD
        assert engine.failovers == 1
        assert engine.delegate_history == [4, 3]


class TestChaosGolden:
    def test_builder_matches_golden(self, golden_workload):
        result = (
            SimulationBuilder(
                golden_workload.fork(),
                anu_policy(),
                ClusterConfig(server_powers=POWERS),
            )
            .chaos(schedule=CHAOS_SCHEDULE, chaos=ChaosConfig(seed=7))
            .run()
        )
        assert chaos_fingerprint(result) == CHAOS_GOLD
