"""The non-stationary (hot-spot) workload generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads import ShiftConfig, SyntheticConfig, generate_shifting


class TestShiftConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shift_at_fraction": 0.0},
            {"shift_at_fraction": 1.0},
            {"hot_boost": 0.5},
            {"n_hot": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ShiftConfig(**kwargs)


class TestGenerate:
    @pytest.fixture(scope="class")
    def generated(self):
        cfg = ShiftConfig(
            base=SyntheticConfig(
                n_filesets=20, duration=2000.0, target_requests=4000
            ),
            n_hot=2,
            hot_boost=10.0,
        )
        return generate_shifting(cfg, seed=5), cfg

    def test_hot_sets_actually_heat_up(self, generated):
        (wl, hot), cfg = generated
        t_shift = cfg.base.duration * cfg.shift_at_fraction
        pre = wl.work_between(0.0, t_shift)
        post = wl.work_between(t_shift, wl.duration + 1)
        for name in hot:
            assert post[name] > 3 * pre[name], name

    def test_total_load_stays_calibrated(self, generated):
        (wl, _), cfg = generated
        t_shift = cfg.base.duration * cfg.shift_at_fraction
        pre_total = sum(wl.work_between(0.0, t_shift).values())
        post_total = sum(wl.work_between(t_shift, wl.duration + 1).values())
        # both phases offer comparable totals (only the mix shifts)
        assert post_total == pytest.approx(pre_total, rel=0.1)

    def test_hot_sets_were_coldest_before(self, generated):
        (wl, hot), cfg = generated
        t_shift = cfg.base.duration * cfg.shift_at_fraction
        pre = wl.work_between(0.0, t_shift)
        cold_threshold = float(np.median(list(pre.values())))
        for name in hot:
            assert pre[name] <= cold_threshold

    def test_requests_sorted_and_within_duration(self, generated):
        (wl, _), _ = generated
        arr = [r.arrival for r in wl.replay()]
        assert arr == sorted(arr)
        assert arr[-1] < wl.duration

    def test_deterministic(self):
        cfg = ShiftConfig(
            base=SyntheticConfig(n_filesets=10, duration=1000.0, target_requests=1000)
        )
        (a, hot_a) = generate_shifting(cfg, seed=3)
        (b, hot_b) = generate_shifting(cfg, seed=3)
        assert hot_a == hot_b
        assert [r.arrival for r in list(a.replay())[:100]] == [
            r.arrival for r in list(b.replay())[:100]
        ]

    def test_catalog_covers_both_phases(self, generated):
        (wl, _), _ = generated
        by_fs = {}
        for r in wl.replay():
            by_fs[r.fileset] = by_fs.get(r.fileset, 0.0) + r.work
        for fs in wl.catalog:
            assert by_fs.get(fs.name, 0.0) == pytest.approx(fs.total_work)
