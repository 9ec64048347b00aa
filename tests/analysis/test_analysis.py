"""The §4 balance bound and its Monte Carlo."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import anu_balance_bound, measure_balance


class TestBounds:
    def test_anu_bound_formula(self):
        assert anu_balance_bound(100, 10) == 11
        assert anu_balance_bound(101, 10) == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            anu_balance_bound(-1, 5)
        with pytest.raises(ValueError):
            anu_balance_bound(5, 0)


class TestMeasuredBalance:
    def test_multi_choice_beats_single_choice(self):
        out = measure_balance(m=256, n=16, trials=5, d=2, seed=3)
        mc_max = np.mean([s.max_load for s in out["multi"]])
        single_max = np.mean([s.max_load for s in out["single"]])
        assert mc_max <= single_max

    def test_multi_choice_within_bound(self):
        m, n = 256, 16
        out = measure_balance(m=m, n=n, trials=5, d=2, seed=1)
        bound = anu_balance_bound(m, n)
        for sample in out["multi"]:
            # w.h.p. bound with small slack for the finite-m regime
            assert sample.max_load <= bound + 3

    def test_loads_conserve_items(self):
        out = measure_balance(m=100, n=10, trials=2, seed=0)
        for scheme_samples in out.values():
            for s in scheme_samples:
                assert s.mean_load * s.n == pytest.approx(s.m)

    def test_overshoot_property(self):
        out = measure_balance(m=64, n=8, trials=1, seed=0)
        s = out["uniform"][0]
        assert s.overshoot == s.max_load - 8.0

    def test_validation(self):
        with pytest.raises(ValueError):
            measure_balance(10, 2, trials=0)

