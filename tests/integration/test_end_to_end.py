"""End-to-end integration: the paper's qualitative claims at small scale.

Each test runs a real simulation (workload → cluster → policy → result)
and checks a claim from the paper's evaluation section. Scales are
chosen so the whole module stays in CI time; the full-scale equivalents
are the claims of ``repro.experiments.claims``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import CacheConfig
from repro.engine import ClusterConfig, ExperimentSpec
from repro.metrics import consistency_report, movement_series, steady_state_means
from repro.policies import (
    ANURandomization,
    DynamicPrescient,
    SimpleRandomization,
    VirtualProcessorSystem,
)
from repro.workloads import SyntheticConfig, generate_synthetic, generate_trace_shaped
from repro.workloads.trace import TraceConfig

POWERS = {0: 1.0, 1: 3.0, 2: 5.0, 3: 7.0, 4: 9.0}


@pytest.fixture(scope="module")
def workload():
    """40-minute synthetic workload (20 tuning rounds)."""
    return generate_synthetic(
        SyntheticConfig(duration=2400.0, target_requests=13000), seed=4
    )


def run(policy, wl, **cfg_kw):
    sim = ExperimentSpec(
        wl.fork(),
        policy,
        ClusterConfig(server_powers=POWERS, **cfg_kw),
    ).build()
    return sim.run()


class TestFigure5Claims:
    def test_simple_randomization_weakest_degrades(self, workload):
        """'The weakest server's performance keeps degrading during the
        simulation and there is unused capacity on more powerful
        servers' (§5.2.1)."""
        res = run(SimpleRandomization(list(POWERS)), workload)
        t0 = res.server_latency[0].values()
        finite = t0[~np.isnan(t0)]
        # monotone-ish degradation: late latency >> early latency
        assert finite[-1] > 5 * finite[0]
        # unused capacity on the most powerful server
        assert res.server_utilization[4] < 0.5

    def test_anu_converges_and_balances(self, workload):
        res = run(ANURandomization(list(POWERS)), workload)
        ss = steady_state_means(res)
        active = {s: v for s, v in ss.items() if not np.isnan(v) and s != 0}
        assert len(active) >= 3
        vals = np.array(list(active.values()))
        assert vals.max() < 20 * vals.min()  # no runaway server
        assert res.completed >= 0.99 * res.submitted

    def test_prescient_balanced_from_time_zero(self, workload):
        res = run(DynamicPrescient(list(POWERS)), workload)
        first_window = {
            sid: ts.values()[0] for sid, ts in res.server_latency.items()
        }
        finite = [v for v in first_window.values() if not np.isnan(v)]
        assert max(finite) < 30 * min(finite)


class TestFigure6Claims:
    def test_ordering_prescient_best(self, workload):
        """Prescient ≤ VP and prescient ≤ ANU on aggregate latency."""
        prescient = run(DynamicPrescient(list(POWERS)), workload)
        vp = run(VirtualProcessorSystem(list(POWERS), v=5), workload)
        anu = run(ANURandomization(list(POWERS)), workload)
        assert prescient.aggregate_mean_latency <= vp.aggregate_mean_latency * 1.1
        assert prescient.aggregate_mean_latency <= anu.aggregate_mean_latency

    def test_anu_weakest_server_serves_tiny_share(self, workload):
        """'server 0 served only 248 requests (0.37%)' — ours must be
        a similarly tiny share."""
        res = run(ANURandomization(list(POWERS)), workload)
        assert res.request_share(0) < 0.06

    def test_anu_consistency_excluding_weakest(self, workload):
        """Consistency is a *steady-state* property: whole-run means
        still carry the convergence transient in a 40-minute run, so we
        judge the post-convergence window (the paper's 'once the system
        reaches balance')."""
        from repro.metrics import jain_index

        res = run(ANURandomization(list(POWERS)), workload)
        ss = steady_state_means(res)
        active = np.array(
            [v for s, v in ss.items() if s != 0 and not np.isnan(v)]
        )
        assert active.size >= 3
        assert jain_index(active) > 0.5


class TestFigure7Claims:
    def test_movement_small_and_front_loaded(self, workload):
        res = run(ANURandomization(list(POWERS)), workload)
        series = movement_series(res)
        n_filesets = 50
        # "totally moves 112 file sets" over 100 rounds for 50 file
        # sets — about 2.2 moves/round; allow generous headroom.
        assert series.total_moves < n_filesets * 6
        # early rounds move more than late rounds on average
        half = len(series.moves) // 2
        assert series.moves[:half].sum() >= series.moves[half:].sum() * 0.5


class TestFigure8Claims:
    def test_vp_quality_improves_with_count(self, workload):
        lat = {}
        for nv in (5, 50):
            res = run(VirtualProcessorSystem(list(POWERS), n_virtual=nv), workload)
            lat[nv] = res.aggregate_mean_latency
        assert lat[50] <= lat[5]

    def test_state_ordering(self, workload):
        anu = run(ANURandomization(list(POWERS)), workload)
        vp = run(VirtualProcessorSystem(list(POWERS), n_virtual=50), workload)
        assert anu.shared_state_entries < vp.shared_state_entries


class TestTraceSanity:
    def test_trace_workload_same_qualitative_shape(self):
        """Figure 4's role: trace-driven results mirror synthetic ones.

        The trace workload's α = 1.3 bursts are violent, so the
        qualitative ordering only emerges over the full one-hour trace
        (30 tuning rounds) — exactly the duration the paper used.
        """
        wl = generate_trace_shaped(TraceConfig(), seed=1)
        simple = run(SimpleRandomization(list(POWERS)), wl)
        anu = run(ANURandomization(list(POWERS)), wl)
        prescient = run(DynamicPrescient(list(POWERS)), wl)
        # Static placement leaves one server catastrophically imbalanced
        # (under Zipf trace skew it is whichever server drew the hottest
        # subtree, not necessarily the weakest one); adaptive systems fix
        # it, and the oracle is the floor.
        psm = simple.per_server_mean_latency
        assert max(psm.values()) > 10 * min(psm.values())
        assert anu.aggregate_mean_latency < simple.aggregate_mean_latency
        assert prescient.aggregate_mean_latency < anu.aggregate_mean_latency


class TestCacheCostMatters:
    def test_disabling_cache_costs_changes_results(self, workload):
        """The §5.3 cost model is live: turning it off alters latency."""
        with_cache = run(ANURandomization(list(POWERS)), workload)
        without = run(
            ANURandomization(list(POWERS)),
            workload,
            cache=CacheConfig(flush_work_scale=0.0, cold_factor=1.0, warmup_time=0.0),
        )
        assert with_cache.total_moves > 0
        assert with_cache.aggregate_mean_latency != without.aggregate_mean_latency
