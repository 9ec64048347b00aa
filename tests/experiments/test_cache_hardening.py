"""Cache corruption recovery and strict environment-knob parsing."""

from __future__ import annotations

import pickle

import pytest

from repro.experiments.cache import ExperimentCache
from repro.experiments.fanout import default_workers
from repro.workloads import SyntheticConfig, generate_synthetic

SMALL = SyntheticConfig(
    n_filesets=5, duration=60.0, target_requests=50, total_capacity=10.0
)


@pytest.fixture
def cache(tmp_path):
    return ExperimentCache(root=tmp_path, enabled=True)


@pytest.fixture
def stored(cache):
    workload = generate_synthetic(SMALL, seed=1)
    cache.put_workload(SMALL, 1, workload)
    return workload


class TestCorruptEntries:
    def test_round_trip_baseline(self, cache, stored):
        loaded = cache.get_workload(SMALL, 1)
        assert loaded is not None
        assert len(loaded.requests) == len(stored.requests)
        assert cache.hits == 1 and cache.evictions == 0

    def test_garbage_bytes_deleted_and_missed(self, cache, stored):
        path = cache._path(cache.workload_key(SMALL, 1))
        path.write_bytes(b"\x00garbage\xff not a pickle")
        assert cache.get_workload(SMALL, 1) is None
        assert cache.evictions == 1
        assert not path.exists(), "corrupt entry must be deleted"
        # The slot is reusable: a fresh store works again.
        cache.put_workload(SMALL, 1, stored)
        assert cache.get_workload(SMALL, 1) is not None

    def test_truncated_pickle_deleted(self, cache, stored):
        path = cache._path(cache.workload_key(SMALL, 1))
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        assert cache.get_workload(SMALL, 1) is None
        assert cache.evictions == 1
        assert not path.exists()

    def test_empty_file_deleted(self, cache, stored):
        path = cache._path(cache.workload_key(SMALL, 1))
        path.write_bytes(b"")
        assert cache.get_workload(SMALL, 1) is None
        assert not path.exists()

    def test_wrong_but_valid_pickle_is_served_as_is(self, cache, stored):
        # Decodable-but-wrong content is a cache-key responsibility,
        # not corruption: the loader returns it without eviction.
        path = cache._path(cache.workload_key(SMALL, 1))
        path.write_bytes(pickle.dumps({"not": "a workload"}))
        assert cache.get_workload(SMALL, 1) == {"not": "a workload"}
        assert cache.evictions == 0

    def test_absent_entry_is_plain_miss(self, cache):
        assert cache.get_workload(SMALL, 99) is None
        assert cache.misses == 1 and cache.evictions == 0


class TestReproCacheEnv:
    @pytest.mark.parametrize("value", ["", "on", "1", "true", "yes", "ON", " True "])
    def test_truthy_values_enable(self, monkeypatch, tmp_path, value):
        monkeypatch.setenv("REPRO_CACHE", value)
        assert ExperimentCache(root=tmp_path).enabled

    @pytest.mark.parametrize("value", ["off", "0", "false", "no", "OFF", " False "])
    def test_falsy_values_disable(self, monkeypatch, tmp_path, value):
        monkeypatch.setenv("REPRO_CACHE", value)
        assert not ExperimentCache(root=tmp_path).enabled

    @pytest.mark.parametrize("value", ["offf", "2", "disable", "nope"])
    def test_garbage_rejected_with_clear_message(self, monkeypatch, tmp_path, value):
        monkeypatch.setenv("REPRO_CACHE", value)
        with pytest.raises(ValueError, match="REPRO_CACHE"):
            ExperimentCache(root=tmp_path)

    def test_explicit_enabled_overrides_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "garbage")
        # An explicit argument never consults the (broken) environment.
        assert ExperimentCache(root=tmp_path, enabled=False).enabled is False


class TestParallelWorkersEnv:
    def test_valid_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "4")
        assert default_workers() == 4

    def test_unset_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL_WORKERS", raising=False)
        assert default_workers() >= 1

    def test_blank_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "  ")
        assert default_workers() >= 1

    @pytest.mark.parametrize("value", ["three", "4.5", "many"])
    def test_non_integer_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", value)
        with pytest.raises(ValueError, match="REPRO_PARALLEL_WORKERS"):
            default_workers()

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_non_positive_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_PARALLEL_WORKERS", value)
        with pytest.raises(ValueError, match=">= 1"):
            default_workers()
