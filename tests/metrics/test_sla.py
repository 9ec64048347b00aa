"""Latency targets over cluster results (the §5.2.2 SLA view).

"as cluster and grid systems extend to support Service Level
Agreements [7, 8], it is essential that application performance is
consistent over different servers in a heterogeneous cluster" (§5.2.2).
An SLA is a latency target with a required attainment fraction; these
tests read it straight off the run's latencies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ClusterConfig, ExperimentSpec
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


class TestEvaluate:
    def test_loose_sla_met_by_adaptive_system(self, runs):
        """≥ 90 % of all submitted requests (unfinished ones count as
        misses) complete within 60 s under ANU."""
        result = runs["anu"]
        within = int((result.all_latencies <= 60.0).sum())
        assert within / result.submitted > 0.9

    def test_simple_randomization_violates(self, runs):
        """The overloaded weakest server breaks per-server consistency."""
        result = runs["simple"]
        assert result.request_share(0) >= 0.01
        latencies = result.server_tally[0].samples_view()
        assert float(np.mean(latencies <= 30.0)) < 0.9

    def test_unfinished_requests_count_as_violations(self, runs):
        simple = runs["simple"]
        if simple.unfinished:
            # Even an unbounded target cannot reach 100 % with a backlog.
            assert int((simple.all_latencies <= 1e9).sum()) / simple.submitted < 1.0

    def test_impossible_sla_unmet(self, runs):
        """Service takes time: no request completes within a nanosecond."""
        result = runs["anu"]
        assert int((result.all_latencies <= 1e-9).sum()) / result.submitted < 0.5
