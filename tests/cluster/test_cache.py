"""Cache model: flush charging, cold windows, disabled mode."""

from __future__ import annotations

import pytest

from repro.cluster import CacheConfig, CacheModel


class TestConfig:
    def test_defaults_enabled(self):
        assert CacheConfig().enabled

    def test_noop_config_disabled(self):
        cfg = CacheConfig(flush_work_scale=0.0, cold_factor=1.0, warmup_time=0.0)
        assert not cfg.enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"flush_work_scale": -1.0},
            {"cold_factor": 0.5},
            {"warmup_time": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CacheConfig(**kwargs)


class TestShedCosts:
    def test_flush_proportional_to_request_work(self):
        model = CacheModel(CacheConfig(flush_work_scale=4.0))
        flush = model.on_shed("/fs", "a", "b", now=0.0, mean_request_work=2.5)
        assert flush == pytest.approx(10.0)
        assert model.total_flush_work == pytest.approx(10.0)
        assert model.sheds_seen == 1

    def test_target_is_cold_until_warmup(self):
        model = CacheModel(CacheConfig(cold_factor=1.5, warmup_time=30.0))
        model.on_shed("/fs", "a", "b", now=100.0, mean_request_work=1.0)
        assert model.work_multiplier("b", "/fs", 100.0) == 1.5
        assert model.work_multiplier("b", "/fs", 129.9) == 1.5
        assert model.work_multiplier("b", "/fs", 130.0) == 1.0

    def test_source_loses_warmth(self):
        model = CacheModel(CacheConfig(cold_factor=2.0, warmup_time=50.0))
        # b acquires, warms up, then sheds back to a
        model.on_shed("/fs", "a", "b", now=0.0, mean_request_work=1.0)
        model.on_shed("/fs", "b", "a", now=100.0, mean_request_work=1.0)
        # a is cold again (fresh acquisition), b's entry was dropped
        assert model.work_multiplier("a", "/fs", 110.0) == 2.0
        assert model.work_multiplier("b", "/fs", 110.0) == 1.0

    def test_unrelated_pairs_unaffected(self):
        model = CacheModel()
        model.on_shed("/fs", "a", "b", now=0.0, mean_request_work=1.0)
        assert model.work_multiplier("c", "/fs", 1.0) == 1.0
        assert model.work_multiplier("b", "/other", 1.0) == 1.0

    def test_is_cold(self):
        model = CacheModel(CacheConfig(cold_factor=1.5, warmup_time=10.0))
        model.on_shed("/fs", "a", "b", now=0.0, mean_request_work=1.0)
        # Cold inside the warmup window, warm after it.
        assert model.work_multiplier("b", "/fs", 5.0) > 1.0
        assert model.work_multiplier("b", "/fs", 15.0) == 1.0

    def test_expired_entries_are_pruned(self):
        model = CacheModel(CacheConfig(cold_factor=1.5, warmup_time=10.0))
        model.on_shed("/fs", "a", "b", now=0.0, mean_request_work=1.0)
        model.work_multiplier("b", "/fs", 20.0)  # past warmup: prunes
        assert model.cold == {}

    def test_disabled_model_is_free(self):
        model = CacheModel(
            CacheConfig(flush_work_scale=0.0, cold_factor=1.0, warmup_time=0.0)
        )
        flush = model.on_shed("/fs", "a", "b", now=0.0, mean_request_work=5.0)
        assert flush == 0.0
        assert model.work_multiplier("b", "/fs", 0.0) == 1.0
