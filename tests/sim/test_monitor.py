"""Tally and TimeSeries statistics."""

from __future__ import annotations

import copy
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Tally, TimeSeries


def variance(t: Tally) -> float:
    """Unbiased sample variance from the tally's Welford state."""
    return t._m2 / (t.count - 1) if t.count > 1 else math.nan


class TestTally:
    def test_empty_stats_are_nan(self):
        t = Tally()
        assert math.isnan(t.mean) and math.isnan(variance(t))
        assert math.isnan(t.minimum) and math.isnan(t.maximum)
        assert t.count == 0

    def test_mean_variance_match_numpy(self):
        rng = np.random.default_rng(3)
        data = rng.exponential(2.0, size=500)
        t = Tally()
        t.observe_each(data)
        assert t.count == 500
        assert t.mean == pytest.approx(float(data.mean()), rel=1e-12)
        assert variance(t) == pytest.approx(float(data.var(ddof=1)), rel=1e-9)
        assert t.minimum == float(data.min())
        assert t.maximum == float(data.max())

    def test_single_observation(self):
        t = Tally()
        t.observe(5.0)
        assert t.mean == 5.0
        assert math.isnan(variance(t))

    def test_percentile_requires_keep(self):
        t = Tally(keep=False)
        t.observe(1.0)
        with pytest.raises(ValueError):
            t.percentile(50)

    def test_percentile_and_samples(self):
        t = Tally(keep=True)
        t.observe_each(range(101))
        assert t.percentile(50) == 50.0
        assert t.samples_view().shape == (101,)



class TestTimeSeries:
    def test_record_and_arrays(self):
        ts = TimeSeries("x")
        ts.record(0.0, 1.0)
        ts.record(1.0, 2.0)
        assert len(ts) == 2
        np.testing.assert_allclose(ts.times(), [0.0, 1.0])
        np.testing.assert_allclose(ts.values(), [1.0, 2.0])

    def test_nondecreasing_enforced(self):
        ts = TimeSeries()
        ts.record(5.0, 1.0)
        with pytest.raises(ValueError):
            ts.record(4.0, 1.0)

    def test_window(self):
        ts = TimeSeries()
        for t in range(10):
            ts.record(float(t), float(t * 10))
        times, values = ts.window(2.0, 5.0)
        np.testing.assert_allclose(times, [2.0, 3.0, 4.0])
        np.testing.assert_allclose(values, [20.0, 30.0, 40.0])


def _moments(batch: np.ndarray):
    mean = float(batch.mean())
    m2 = float(((batch - mean) ** 2).sum())
    return batch.shape[0], mean, m2, float(batch.min()), float(batch.max())


class TestTallyMoments:
    """observe_moments merges pre-reduced batches like observe_each."""

    def test_matches_observe_each(self):
        rng = np.random.default_rng(17)
        a = Tally()
        b = Tally()
        for size in (1, 400, 7, 60):
            batch = rng.exponential(1.5, size=size)
            a.observe_each(batch)
            b.observe_moments(*_moments(batch))
        assert b.count == a.count
        assert b.mean == pytest.approx(a.mean, rel=1e-12)
        assert variance(b) == pytest.approx(variance(a), rel=1e-9)
        assert b.minimum == a.minimum and b.maximum == a.maximum

    def test_zero_count_is_noop(self):
        t = Tally()
        t.observe_moments(0, math.nan, math.nan, math.nan, math.nan)
        assert t.count == 0 and math.isnan(t.mean)

    def test_first_batch_sets_state(self):
        t = Tally()
        batch = np.array([2.0, 4.0, 6.0])
        t.observe_moments(*_moments(batch))
        assert t.mean == 4.0
        assert variance(t) == pytest.approx(4.0)
        assert (t.minimum, t.maximum) == (2.0, 6.0)

    def test_keep_requires_exact_samples(self):
        t = Tally(keep=True)
        batch = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="need exactly 3"):
            t.observe_moments(*_moments(batch))
        with pytest.raises(ValueError, match="need exactly 3"):
            t.observe_moments(*_moments(batch), samples=batch[:2])
        t.observe_moments(*_moments(batch), samples=batch)
        np.testing.assert_array_equal(t.samples_view(), batch)

    def test_kept_samples_grow_buffer(self):
        t = Tally(keep=True)
        rng = np.random.default_rng(2)
        want = []
        for size in (3, 50, 900):
            batch = rng.uniform(0, 1, size=size)
            t.observe_moments(*_moments(batch), samples=batch)
            want.append(batch)
        np.testing.assert_array_equal(t.samples_view(), np.concatenate(want))


class TestTallySampleRetention:
    def test_forget_samples_drops_buffer_keeps_moments(self):
        t = Tally(keep=True)
        t.observe_each([1.0, 2.0, 3.0])
        t.forget_samples()
        with pytest.raises(ValueError, match="keep=False"):
            t.samples_view()
        # Streaming moments survive, before and after more observations.
        assert t.mean == 2.0
        t.observe(4.0)
        assert t.count == 4 and t.maximum == 4.0

    def test_samples_view_is_read_only_and_zero_copy(self):
        t = Tally(keep=True)
        t.observe_each([5.0, 6.0])
        view = t.samples_view()
        np.testing.assert_array_equal(view, [5.0, 6.0])
        assert view.base is not None  # a view, not a copy
        with pytest.raises(ValueError):
            view[0] = 0.0

    def test_a_live_view_pins_the_buffer(self):
        """The view's contract: drop it before the next observation. An
        observation refused under a live view leaves the tally as it was."""
        t = Tally(keep=True)
        t.observe(1.0)
        view = t.samples_view()
        with pytest.raises(BufferError):
            t.observe(2.0)
        with pytest.raises(BufferError):
            t.observe_each([2.0, 3.0])
        with pytest.raises(BufferError):
            t.observe_moments(1, 2.0, 0.0, 2.0, 2.0, samples=np.array([2.0]))
        assert (t.count, t.mean, t.maximum, len(view)) == (1, 1.0, 1.0, 1)
        del view
        t.observe(2.0)
        np.testing.assert_array_equal(t.samples_view(), [1.0, 2.0])


_values = st.floats(-1e6, 1e6, allow_nan=False)
#: One step of a tally's life: a scalar, a batch, or a pre-reduced batch.
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), _values),
        st.tuples(st.just("each"), st.lists(_values, max_size=40)),
        st.tuples(st.just("moments"), st.lists(_values, min_size=1, max_size=40)),
    ),
    max_size=30,
)


def _replay(steps) -> tuple:
    """Apply ``steps`` to a keeping tally; return it and what it saw."""
    t = Tally(keep=True)
    seen = []
    for kind, value in steps:
        if kind == "observe":
            t.observe(value)
            seen.append(value)
        elif kind == "each":
            t.observe_each(value)
            seen.extend(value)
        else:
            batch = np.array(value)
            t.observe_moments(*_moments(batch), samples=batch)
            seen.extend(value)
    return t, seen


class TestKeptSampleBuffer:
    """Retained samples across growth, merges and pickling."""

    @settings(max_examples=60, deadline=None)
    @given(_steps)
    def test_samples_are_what_was_observed(self, steps):
        t, seen = _replay(steps)
        samples = t.samples_view()
        assert samples.dtype == np.float64
        assert samples.tolist() == seen
        assert t.count == len(seen)
        if seen:
            assert t.percentile(50) == float(np.percentile(seen, 50))
            assert (t.minimum, t.maximum) == (min(seen), max(seen))

    def test_growth_far_past_any_initial_capacity(self):
        t = Tally(keep=True)
        values = np.random.default_rng(5).uniform(0, 1, size=5_000)
        for v in values[:2_000]:
            t.observe(float(v))
        t.observe_each(values[2_000:4_000])
        t.observe_moments(*_moments(values[4_000:]), samples=values[4_000:])
        np.testing.assert_array_equal(t.samples_view(), values)

    def test_moment_samples_are_cast_to_float64(self):
        t = Tally(keep=True)
        batch = np.array([1, 2, 3], dtype=np.int32)
        t.observe_moments(3, 2.0, 2.0, 1.0, 3.0, samples=batch[::-1])
        assert t.samples_view().tolist() == [3.0, 2.0, 1.0]

    @settings(max_examples=30, deadline=None)
    @given(_steps, _steps)
    def test_pickle_round_trip_keeps_state_and_buffer(self, before, after):
        t, seen = _replay(before)
        clone = pickle.loads(pickle.dumps(t))
        assert clone.samples_view().tolist() == seen
        assert (clone.count, clone._mean, clone._m2) == (t.count, t._mean, t._m2)
        # The clone owns its buffer: both keep growing independently.
        _, extra = _replay(after)
        for tally in (t, clone):
            tally.observe_each(extra)
        assert clone.samples_view().tolist() == t.samples_view().tolist() == seen + extra

    def test_shallow_copy_does_not_share_the_buffer(self):
        t = Tally(keep=True)
        t.observe(1.0)
        twin = copy.copy(t)
        twin.observe(2.0)
        assert t.samples_view().tolist() == [1.0]
        assert twin.samples_view().tolist() == [1.0, 2.0]

    def test_sample_free_tally_pickles(self):
        t = Tally()
        t.observe_each([1.0, 3.0])
        clone = pickle.loads(pickle.dumps(t))
        assert (clone.count, clone.mean) == (2, 2.0)
        with pytest.raises(ValueError, match="keep=False"):
            clone.samples_view()



def _state(t: Tally) -> tuple:
    """Everything a tally holds, floats as bit patterns."""
    bits = [struct.pack("<d", x) for x in (t._mean, t._m2, t._min, t._max)]
    samples = t.samples_view().tobytes() if t._keep else None
    return (t._n, type(t._n), *bits, samples)


#: Any finite double, and integers, which observe() converts with float().
_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.integers(-(2**60), 2**60),
)


class TestObserveEach:
    """observe_each is repeated observe, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_numbers, max_size=30),
        st.lists(st.lists(_numbers, max_size=30), max_size=4),
        st.booleans(),
    )
    def test_bit_equal_to_repeated_observe(self, before, batches, keep):
        one, each = Tally(keep=keep), Tally(keep=keep)
        for value in before:
            one.observe(value)
            each.observe(value)
        for batch in batches:
            for value in batch:
                one.observe(value)
            each.observe_each(batch)
            assert _state(each) == _state(one)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_numbers, max_size=10), st.lists(_numbers, min_size=1, max_size=10))
    def test_refused_under_a_live_view_leaves_the_tally_unchanged(self, before, batch):
        t = Tally(keep=True)
        t.observe_each(before)
        was = _state(t)
        view = t.samples_view()
        with pytest.raises(BufferError):
            t.observe_each(batch)
        del view
        assert _state(t) == was
