"""Determinism guarantees: repeat runs and parallel runs.

The reproduction's credibility rests on bit-for-bit repeatability: the
same seed must give the same `ClusterResult` no matter when or in which
process the run happened. These tests pin that contract with content
fingerprints rather than spot checks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    paper_config,
    result_fingerprint,
    run_comparison,
    run_vp_sweep,
)
from repro.workloads import generate_synthetic

SCALE = 0.05
SYSTEMS = ("simple", "anu", "prescient", "virtual")


@pytest.fixture(scope="module")
def config():
    return paper_config(seed=3, scale=SCALE)


@pytest.fixture(scope="module")
def workload(config):
    return generate_synthetic(config.synthetic_config(), seed=3)


@pytest.fixture(scope="module")
def sequential(workload, config):
    return run_comparison(workload, config, systems=SYSTEMS)


class TestSequentialDeterminism:
    def test_same_seed_identical_results(self, workload, config, sequential):
        again = run_comparison(workload, config, systems=SYSTEMS)
        for system in SYSTEMS:
            a, b = sequential[system], again[system]
            np.testing.assert_array_equal(a.all_latencies, b.all_latencies)
            assert [
                (m.round_index, m.time, m.kind, m.moves, m.moved_work_share)
                for m in a.movement
            ] == [
                (m.round_index, m.time, m.kind, m.moves, m.moved_work_share)
                for m in b.movement
            ]
            assert a.events_processed == b.events_processed > 0
            assert result_fingerprint(a) == result_fingerprint(b)

    def test_different_seeds_differ(self, config, sequential):
        other_wl = generate_synthetic(config.synthetic_config(), seed=4)
        other = run_comparison(other_wl, config, systems=("anu",))
        assert result_fingerprint(other["anu"]) != result_fingerprint(sequential["anu"])


class TestParallelDeterminism:
    def test_parallel_byte_identical_to_sequential(self, workload, config, sequential):
        parallel = run_comparison(workload, config, systems=SYSTEMS, max_workers=2)
        assert list(parallel) == list(SYSTEMS)
        for system in SYSTEMS:
            assert result_fingerprint(parallel[system]) == result_fingerprint(
                sequential[system]
            ), f"parallel diverged from sequential for {system}"

    def test_single_worker_fallback_identical(self, workload, config, sequential):
        inline = run_comparison(workload, config, systems=("anu",), max_workers=1)
        assert result_fingerprint(inline["anu"]) == result_fingerprint(sequential["anu"])

    def test_vp_sweep_matches_direct_runs(self, workload, config):
        from repro.experiments.runner import run_system

        sweep = run_vp_sweep(workload, config, sweep=(5, 10), max_workers=2)
        for nv in (5, 10):
            direct = run_system("virtual", workload.fork(), config, n_virtual=nv)
            assert result_fingerprint(sweep[nv]) == result_fingerprint(direct)
