"""Golden fingerprints of the layered engine.

The engine's contract is *bit-identical* replay: assembling an engine
from layers must reproduce the exact event sequence these hard-coded
SHA-256 digests were taken from (one paper-config run per system on the
synthetic and on the trace-shaped workload, one distributed run, one
chaos run).

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

from repro.cluster import FileServer
from repro.core.hashing import HashFamily
from repro.engine import (
    ChaosConfig,
    ClusterConfig,
    DistributedControlPlane,
    ExperimentSpec,
    chaos_layers,
)
from repro.experiments.cache import result_fingerprint
from repro.experiments.config import paper_config
from repro.experiments.runner import run_system
from repro.faults import FaultEvent, FaultKind, FaultSchedule, chaos_fingerprint
from repro.policies import ANURandomization
from repro.sim import Simulator
from repro.workloads import generate_synthetic
from repro.workloads.trace import generate_trace_shaped

from .conftest import POWERS, behaviour_chaos_fingerprint, behaviour_fingerprint

#: Digests of the paper-config runs (seed=3, scale=0.02), one per system.
PAPER_GOLD = {
    "simple": "559a600ad8abe3243814758eef25e7d720f3adce504680d2c41778cf160db1b9",
    "anu": "7a2639c735e12f30e8b985fcf2bb9b4199019e3456be942c63e269459deda9a3",
    "prescient": "7a6850e678446880d1cbbc7615e5199c753260b009abd6d583ab7abb3b148cf8",
    "virtual": "3aa6c0f40efce74d3e245f8acf7b3d78f47f641b1f4b14b0b31150cfc73a2fc5",
}

#: Behaviour pins (event count zeroed) and event counts of the same runs.
PAPER_BEHAVIOUR = {
    "simple": "fd9a9135b80725d7ca7e27d7f67dc6298b43f3db0ba70bd48c3c1d7e65dae175",
    "anu": "7d89dcde1199b97a0c1939a872da9aec185c44b4d4120aefc40824f628c23ac0",
    "prescient": "7c0e870d86dea3f544bea665f87490d6eb4ea2bd3095ea3594997978ae21db45",
    "virtual": "211e11ef3890246b67c85ce30af266f54b35d5316902cd375d0484be9be7ea58",
}
PAPER_EVENTS = {
    "simple": 2533,
    "anu": 2559,
    "prescient": 2654,
    "virtual": 2658,
}

#: The four paper systems over the trace-shaped workload (seed=3,
#: scale=0.02): full digest, behaviour pin and event count per system.
TRACE_GOLD = {
    "simple": "9ca5ababdf0b8c2b5022f67b554ec413eece80cf039b7622de55232f9fdfd0cb",
    "anu": "81e2164f407d7963a068bb1a329c3d81494be295b9b120fbb72f792b33864841",
    "prescient": "ab4fa8027666d1f4b7c7058a3e0fa99717dd75a0c4ce77e325629e536031d26c",
    "virtual": "30f0dc4124ad7f4d1e92650947e624902d9e430ad3b342106b478ca7f9b45e28",
}
TRACE_BEHAVIOUR = {
    "simple": "9a08e4484066b6ee9e278c6a277582c403bc3995cc929f51ed55a835cc889342",
    "anu": "1294cea45d96ff6b6828ff39fac179f11a8e8a167389db6197fe8e1343b1a2b5",
    "prescient": "a21e8f47cd1f95b8ad8ecb25085689bf7590821c77b4b3c0ce37ce3f80b4a193",
    "virtual": "6a664cf8058a0680fa4ebab84d07262d728392f7ed7c6d618492e6519a19a1c2",
}
TRACE_EVENTS = {"simple": 4327, "anu": 4470, "prescient": 4495, "virtual": 4495}

#: Distributed control plane over the golden workload, one delegate crash.
DISTRIBUTED_GOLD = "52450484560dec68be7545fd1e8fae30b4c8dd37012534f02472c2cb6ceabf6e"
DISTRIBUTED_BEHAVIOUR = "296b8f35e8ed072a59853a9ddbb07bea0e6388f6259e23cb4786fba7fd66799d"
DISTRIBUTED_EVENTS = 3855

#: Full chaos harness (seed=7) over the golden workload and CHAOS_SCHEDULE.
CHAOS_GOLD = "aa763589811f8b7e563854bd44c29b31a82704a43a56f1e94b5ac8bf730f23e9"
CHAOS_BEHAVIOUR = "99c41672cabe9adab27376d6e713c2fb3b9fe3d098ec8298bc32376a71408c84"
CHAOS_EVENTS = 38096

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

    @pytest.mark.parametrize("system", sorted(TRACE_GOLD))
    def test_trace_shaped_run_matches_golden(self, system):
        config = paper_config(seed=3, scale=0.02)
        workload = generate_trace_shaped(config.trace_config(), seed=3)
        result = run_system(system, workload.fork(), config)
        assert behaviour_fingerprint(result) == TRACE_BEHAVIOUR[system]
        assert result.events_processed == TRACE_EVENTS[system]
        assert result_fingerprint(result) == TRACE_GOLD[system]


class TestDistributedGolden:
    def test_builder_matches_golden(self, golden_workload):
        engine = ExperimentSpec(
            golden_workload.fork(),
            anu_policy(),
            ClusterConfig(server_powers=POWERS),
            control=DistributedControlPlane(delegate_crashes=[200.0]),
        ).build()
        result = engine.run()
        assert behaviour_fingerprint(result) == DISTRIBUTED_BEHAVIOUR
        assert result.events_processed == DISTRIBUTED_EVENTS
        assert result_fingerprint(result) == DISTRIBUTED_GOLD
        assert engine.control.failovers == 1
        assert engine.record.delegate_history == [4, 3]


class TestChaosGolden:
    def test_builder_matches_golden(self, golden_workload):
        result = ExperimentSpec(
            golden_workload.fork(),
            anu_policy(),
            ClusterConfig(server_powers=POWERS),
            **chaos_layers(CHAOS_SCHEDULE, ChaosConfig(seed=7)),
        ).build().run_chaos()
        assert behaviour_chaos_fingerprint(result) == CHAOS_BEHAVIOUR
        assert result.base.events_processed == CHAOS_EVENTS
        assert chaos_fingerprint(result) == CHAOS_GOLD


@pytest.fixture
def entries(monkeypatch):
    """Counts every ``Simulator.schedule_at`` call."""
    count = [0]
    schedule_at = Simulator.schedule_at

    def counted(self, time, callback):
        count[0] += 1
        return schedule_at(self, time, callback)

    monkeypatch.setattr(Simulator, "schedule_at", counted)
    return count


class TestCalendarTraffic:
    """Unobserved service is booked in bulk between entries; listened
    service is not."""

    def test_basic_path_books_service_and_arrivals_without_entries(self, entries):
        config = paper_config(seed=3, scale=0.02)
        workload = generate_synthetic(config.synthetic_config(), seed=3)
        result = run_system("anu", workload.fork(), config)
        assert entries[0] < 0.05 * result.submitted
        assert result.events_processed == PAPER_EVENTS["anu"]
        assert result_fingerprint(result) == PAPER_GOLD["anu"]

    def test_basic_path_books_service_in_bulk(self, monkeypatch):
        """Each server books its backlog in one pass per calendar entry,
        not one call per slice."""
        passes = [0]
        serve = FileServer._serve

        def counted(self, end, t):
            passes[0] += 1
            return serve(self, end, t)

        monkeypatch.setattr(FileServer, "_serve", counted)
        config = paper_config(seed=3, scale=0.02)
        workload = generate_synthetic(config.synthetic_config(), seed=3)
        result = run_system("anu", workload.fork(), config)
        assert passes[0] < 0.02 * result.submitted
        assert result_fingerprint(result) == PAPER_GOLD["anu"]

    def test_hardened_path_keeps_its_per_request_entries(self, entries, golden_workload):
        result = ExperimentSpec(
            golden_workload.fork(),
            anu_policy(),
            ClusterConfig(server_powers=POWERS),
            **chaos_layers(CHAOS_SCHEDULE, ChaosConfig(seed=7)),
        ).build().run_chaos()
        assert entries[0] > 3 * result.base.submitted
        assert chaos_fingerprint(result) == CHAOS_GOLD
