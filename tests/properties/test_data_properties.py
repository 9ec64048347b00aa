"""Property-based tests for hashing, monitors and workload structures."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import HashFamily
from repro.sim import Tally
from repro.workloads import arrival_times_from_gaps, zipf_weights


class TestHashFamilyProperties:
    @given(st.text(min_size=0, max_size=64), st.integers(0, 31))
    @settings(max_examples=200, deadline=None)
    def test_offset_always_in_unit_interval(self, name, round_):
        fam = HashFamily(seed=1, max_probes=32)
        x = fam.offset(name, round_)
        assert 0.0 <= x < 1.0

    @given(st.text(min_size=1, max_size=32))
    @settings(max_examples=100, deadline=None)
    def test_offset_stable_across_instances(self, name):
        assert HashFamily(seed=9).offset(name, 3) == HashFamily(seed=9).offset(name, 3)

    @given(st.text(min_size=1, max_size=32), st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_uniform_choice_in_range(self, name, n):
        choice = HashFamily().uniform_server_choice(name, n)
        assert 0 <= choice < n


class TestTallyProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1))
    @settings(max_examples=100, deadline=None)
    def test_streaming_mean_matches_numpy(self, values):
        t = Tally()
        t.observe_each(values)
        assert math.isclose(t.mean, float(np.mean(values)), rel_tol=1e-9, abs_tol=1e-6)
        assert t.minimum == min(values)
        assert t.maximum == max(values)

    @given(st.lists(st.floats(min_value=0, max_value=1e3, allow_nan=False), min_size=2))
    @settings(max_examples=100, deadline=None)
    def test_variance_nonnegative(self, values):
        t = Tally()
        t.observe_each(values)
        # Welford's sum of squared deviations never goes negative.
        assert t._m2 >= -1e-9


class TestWorkloadProperties:
    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1e3, allow_nan=False), min_size=2, max_size=200),
        st.floats(min_value=1.0, max_value=1e5),
    )
    @settings(max_examples=60, deadline=None)
    def test_arrivals_monotone_and_bounded(self, gaps, duration):
        arrivals = arrival_times_from_gaps(np.array(gaps), duration, span_fraction=0.99)
        assert (np.diff(arrivals) >= 0).all()
        assert arrivals[-1] <= duration
        assert arrivals[0] >= 0

    @given(st.integers(1, 500), st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_zipf_weights_simplex(self, n, s):
        w = zipf_weights(n, s)
        assert math.isclose(float(w.sum()), 1.0, rel_tol=1e-9)
        assert (w > 0).all()
        assert (np.diff(w) <= 1e-12).all()  # nonincreasing
