"""Golden fingerprints of the layered engine.

The engine's contract is *bit-identical* replay: assembling an engine
from layers must reproduce the exact event sequence these hard-coded
SHA-256 digests were taken from (one paper-config run per system, one
distributed run, one chaos run).

If an intentional behaviour change ever invalidates the digests, rerun
the recipes below and update the constants — in the same commit as the
change, with the reason in the commit message.

The full digests hash the kernel's ``events_processed``, so a change to
the kernel's event traffic alone flips them. Each recipe therefore also
carries a *behaviour* pin — the digest with the event count zeroed — and
its event count as a plain integer: a traffic-only change re-records the
digest and the count and leaves the behaviour pin where it is.
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

from .conftest import POWERS, behaviour_chaos_fingerprint, behaviour_fingerprint

#: Digests of the paper-config runs (seed=3, scale=0.02), one per system.
PAPER_GOLD = {
    "simple": "559a600ad8abe3243814758eef25e7d720f3adce504680d2c41778cf160db1b9",
    "anu": "7a2639c735e12f30e8b985fcf2bb9b4199019e3456be942c63e269459deda9a3",
    "prescient": "7a6850e678446880d1cbbc7615e5199c753260b009abd6d583ab7abb3b148cf8",
}

#: Behaviour pins (event count zeroed) and event counts of the same runs.
PAPER_BEHAVIOUR = {
    "simple": "fd9a9135b80725d7ca7e27d7f67dc6298b43f3db0ba70bd48c3c1d7e65dae175",
    "anu": "7d89dcde1199b97a0c1939a872da9aec185c44b4d4120aefc40824f628c23ac0",
    "prescient": "7c0e870d86dea3f544bea665f87490d6eb4ea2bd3095ea3594997978ae21db45",
}
PAPER_EVENTS = {"simple": 2533, "anu": 2559, "prescient": 2654}

#: Distributed control plane over the golden workload, one delegate crash.
DISTRIBUTED_GOLD = "52450484560dec68be7545fd1e8fae30b4c8dd37012534f02472c2cb6ceabf6e"
DISTRIBUTED_BEHAVIOUR = "296b8f35e8ed072a59853a9ddbb07bea0e6388f6259e23cb4786fba7fd66799d"
DISTRIBUTED_EVENTS = 3855

#: Full chaos harness (seed=7) over the golden workload and CHAOS_SCHEDULE.
CHAOS_GOLD = "37bfc10b76680a0f32d285e31c65336f9421250beca95e777bee180b67268f93"
CHAOS_BEHAVIOUR = "99c41672cabe9adab27376d6e713c2fb3b9fe3d098ec8298bc32376a71408c84"
CHAOS_EVENTS = 43169

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
        assert behaviour_fingerprint(result) == PAPER_BEHAVIOUR[system]
        assert result.events_processed == PAPER_EVENTS[system]
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
        assert behaviour_fingerprint(result) == DISTRIBUTED_BEHAVIOUR
        assert result.events_processed == DISTRIBUTED_EVENTS
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
        assert behaviour_chaos_fingerprint(result) == CHAOS_BEHAVIOUR
        assert result.base.events_processed == CHAOS_EVENTS
        assert chaos_fingerprint(result) == CHAOS_GOLD
