"""SLA evaluation over cluster results."""

from __future__ import annotations

import math

import pytest

from repro.engine import ClusterConfig, ExperimentSpec
from repro.metrics import SLA, evaluate_sla
from repro.policies import ANURandomization, SimpleRandomization
from repro.workloads import SyntheticConfig, generate_synthetic

POWERS = {0: 1.0, 1: 3.0, 2: 5.0, 3: 7.0, 4: 9.0}


@pytest.fixture(scope="module")
def runs():
    wl_cfg = SyntheticConfig(
        n_filesets=15, duration=2400.0, target_requests=6000, total_capacity=25.0
    )
    out = {}
    for name, factory in (
        ("anu", lambda: ANURandomization(list(POWERS))),
        ("simple", lambda: SimpleRandomization(list(POWERS))),
    ):
        wl = generate_synthetic(wl_cfg, seed=6)
        sim = ExperimentSpec(wl, factory(), ClusterConfig(server_powers=POWERS)).build()
        out[name] = sim.run()
    return out


class TestSLAValidation:
    @pytest.mark.parametrize(
        "kwargs", [{"latency_target": 0.0}, {"latency_target": 1.0, "attainment": 0.0},
                   {"latency_target": 1.0, "attainment": 1.5}]
    )
    def test_bad_sla(self, kwargs):
        with pytest.raises(ValueError):
            SLA(**kwargs)

    def test_met_by(self):
        sla = SLA(latency_target=5.0, attainment=0.9)
        assert sla.met_by(0.9) and sla.met_by(0.95)
        assert not sla.met_by(0.89)


class TestEvaluate:
    def test_loose_sla_met_by_adaptive_system(self, runs):
        report = evaluate_sla(runs["anu"], SLA(latency_target=60.0, attainment=0.9))
        assert report.global_met
        assert report.global_attainment > 0.9

    def test_simple_randomization_violates(self, runs):
        """The overloaded weakest server breaks per-server consistency."""
        sla = SLA(latency_target=30.0, attainment=0.9)
        report = evaluate_sla(runs["simple"], sla, min_share=0.01)
        assert 0 in report.violating_servers
        assert not report.consistent

    def test_unfinished_requests_count_as_violations(self, runs):
        simple = runs["simple"]
        if simple.unfinished:
            report = evaluate_sla(simple, SLA(latency_target=1e9, attainment=1.0))
            # even an infinite target cannot reach 100% with a backlog
            assert report.global_attainment < 1.0

    def test_per_server_fractions_bounded(self, runs):
        report = evaluate_sla(runs["anu"], SLA(latency_target=5.0))
        for sid, frac in report.per_server.items():
            assert math.isnan(frac) or 0.0 <= frac <= 1.0

    def test_tiny_servers_exempt_from_consistency(self, runs):
        sla = SLA(latency_target=0.5, attainment=0.99)
        strict = evaluate_sla(runs["anu"], sla, min_share=0.0)
        lenient = evaluate_sla(runs["anu"], sla, min_share=0.3)
        assert len(lenient.violating_servers) <= len(strict.violating_servers)

    def test_impossible_sla_unmet(self, runs):
        report = evaluate_sla(runs["anu"], SLA(latency_target=1e-9, attainment=0.5))
        assert not report.global_met
