"""Determinism guarantees: repeat runs, parallel runs, and caches.

The reproduction's credibility rests on bit-for-bit repeatability: the
same seed must give the same `ClusterResult` no matter when, in which
process, or from which cache the run happened. These tests pin that
contract with content fingerprints rather than spot checks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    ExperimentCache,
    cached_synthetic,
    paper_config,
    result_fingerprint,
    run_comparison,
    run_vp_sweep,
    workload_fingerprint,
)
from repro.experiments.cache import clear_memo
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


class TestExperimentCache:
    def test_result_roundtrip_preserves_fingerprint(self, tmp_path, workload, config, sequential):
        cache = ExperimentCache(root=tmp_path, enabled=True)
        key = cache.result_key("anu", workload, config)
        assert cache.get_result(key) is None
        cache.put_result(key, sequential["anu"])
        loaded = cache.get_result(key)
        assert loaded is not None
        assert result_fingerprint(loaded) == result_fingerprint(sequential["anu"])

    def test_cached_comparison_identical_and_hit(self, tmp_path, workload, config, sequential):
        cache = ExperimentCache(root=tmp_path, enabled=True)
        first = run_comparison(
            workload, config, systems=("anu", "simple"), cache=cache
        )
        assert cache.hits == 0
        second = run_comparison(
            workload, config, systems=("anu", "simple"), cache=cache
        )
        assert cache.hits == 2
        for system in ("anu", "simple"):
            assert result_fingerprint(second[system]) == result_fingerprint(
                sequential[system]
            )

    def test_workload_roundtrip(self, tmp_path, config):
        cache = ExperimentCache(root=tmp_path, enabled=True)
        syn = config.synthetic_config()
        wl = generate_synthetic(syn, seed=9)
        cache.put_workload(syn, 9, wl)
        loaded = cache.get_workload(syn, 9)
        assert loaded is not None
        assert workload_fingerprint(loaded) == workload_fingerprint(wl)

    def test_disabled_cache_is_noop(self, tmp_path, workload, config, sequential):
        cache = ExperimentCache(root=tmp_path, enabled=False)
        key = cache.result_key("anu", workload, config)
        cache.put_result(key, sequential["anu"])
        assert cache.get_result(key) is None
        assert not any(tmp_path.iterdir())

    def test_key_separates_system_config_and_workload(self, tmp_path, workload, config):
        cache = ExperimentCache(root=tmp_path, enabled=True)
        base = cache.result_key("anu", workload, config)
        assert cache.result_key("simple", workload, config) != base
        other_cfg = paper_config(seed=4, scale=SCALE)
        assert cache.result_key("anu", workload, other_cfg) != base
        other_wl = generate_synthetic(config.synthetic_config(), seed=4)
        assert cache.result_key("anu", other_wl, config) != base
        assert cache.result_key("virtual", workload, config, n_virtual=10) != \
            cache.result_key("virtual", workload, config, n_virtual=20)

    def test_cached_synthetic_returns_pristine_copies(self, tmp_path, config):
        clear_memo()
        cache = ExperimentCache(root=tmp_path, enabled=True)
        syn = config.synthetic_config()
        first = cached_synthetic(syn, 11, cache=cache)
        second = cached_synthetic(syn, 11, cache=cache)
        assert first is not second
        assert workload_fingerprint(first) == workload_fingerprint(second)
        # Serving requests on one copy must not leak into the next.
        first.requests[0].server = "polluted"
        third = cached_synthetic(syn, 11, cache=cache)
        assert third.requests[0].server is None
