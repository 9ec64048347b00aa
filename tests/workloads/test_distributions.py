"""Workload distribution primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import pareto_tail_index
from repro.workloads import (
    arrival_times_from_gaps,
    lognormal_work,
    pareto_gaps,
    weighted_indices,
    zipf_weights,
)
from repro.workloads.distributions import _CHUNK, _cdf_indices


class TestParetoGaps:
    def test_positive_and_count(self):
        rng = np.random.default_rng(0)
        gaps = pareto_gaps(rng, 1000, alpha=1.5)
        assert gaps.shape == (1000,)
        assert (gaps >= 1.0).all()  # scale xm = 1

    def test_tail_index_matches_alpha(self):
        rng = np.random.default_rng(1)
        gaps = pareto_gaps(rng, 200_000, alpha=1.5)
        est = pareto_tail_index(gaps, tail_fraction=0.01)
        assert est == pytest.approx(1.5, rel=0.15)

    def test_heavier_alpha_means_heavier_tail(self):
        rng = np.random.default_rng(2)
        heavy = pareto_gaps(np.random.default_rng(2), 50_000, alpha=1.2)
        light = pareto_gaps(np.random.default_rng(2), 50_000, alpha=2.5)
        assert heavy.max() > light.max()

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            pareto_gaps(rng, 0, 1.5)
        with pytest.raises(ValueError):
            pareto_gaps(rng, 10, 1.0)


class TestArrivalTimes:
    def test_span_and_monotone(self):
        rng = np.random.default_rng(3)
        gaps = pareto_gaps(rng, 500, 1.5)
        arrivals = arrival_times_from_gaps(gaps, duration=1000.0, span_fraction=0.95)
        assert (np.diff(arrivals) > 0).all()
        assert arrivals[-1] == pytest.approx(950.0)
        assert arrivals[0] > 0

    def test_burst_structure_preserved(self):
        """Rescaling preserves gap ratios exactly."""
        gaps = np.array([1.0, 10.0, 1.0, 1.0])
        arrivals = arrival_times_from_gaps(gaps, duration=130.0, span_fraction=1.0)
        rescaled_gaps = np.diff(np.concatenate([[0.0], arrivals]))
        ratios = rescaled_gaps / gaps
        assert np.allclose(ratios, ratios[0])

    def test_bad_span(self):
        with pytest.raises(ValueError):
            arrival_times_from_gaps(np.ones(3), 10.0, span_fraction=0.0)


class TestZipf:
    def test_normalized_and_decreasing(self):
        w = zipf_weights(20, s=1.0)
        assert w.sum() == pytest.approx(1.0)
        assert (np.diff(w) < 0).all()

    def test_s_zero_is_uniform(self):
        w = zipf_weights(10, s=0.0)
        assert np.allclose(w, 0.1)

    def test_larger_s_more_skew(self):
        flat = zipf_weights(10, 0.5)
        steep = zipf_weights(10, 2.0)
        assert steep[0] > flat[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(5, s=-1.0)


class TestLognormalWork:
    def test_mean_matches_target(self):
        rng = np.random.default_rng(4)
        works = lognormal_work(rng, 100_000, mean=2.5, sigma=0.25)
        assert works.mean() == pytest.approx(2.5, rel=0.02)
        assert (works > 0).all()

    def test_sigma_zero_is_constant(self):
        rng = np.random.default_rng(0)
        works = lognormal_work(rng, 10, mean=3.0, sigma=0.0)
        assert np.allclose(works, 3.0)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            lognormal_work(rng, 10, mean=0.0)
        with pytest.raises(ValueError):
            lognormal_work(rng, 10, mean=1.0, sigma=-0.1)


@st.composite
def _cdfs(draw):
    """A sorted CDF over 1..64 entries: spread, zero-padded or heavy-tailed."""
    kind = draw(st.sampled_from(["floats", "pareto"]))
    if kind == "floats":
        weights = np.array(
            draw(
                st.lists(
                    st.one_of(st.just(0.0), st.floats(1e-9, 1e9)),
                    min_size=1,
                    max_size=64,
                )
            )
        )
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        alpha = draw(st.floats(0.2, 1.0))
        weights = rng.pareto(alpha, draw(st.integers(1, 64)))
        weights[rng.random(weights.size) < draw(st.floats(0.0, 0.5))] = 0.0
    if weights.sum() <= 0:
        weights[-1] = 1.0
    cum = np.cumsum(weights / weights.sum())
    if draw(st.booleans()):
        cum[-1] = 1.0
    return cum


def _edge_draws(cum: np.ndarray) -> np.ndarray:
    """Every dyadic edge at twice the guide's resolution, plus ``cum`` and its neighbours."""
    grid = 2 << int(16 * cum.size - 1).bit_length()
    u = np.concatenate(
        [
            np.arange(grid) / grid,
            cum,
            np.nextafter(cum, 0.0),
            np.nextafter(cum, 2.0),
            [np.nextafter(1.0, 0.0)],
        ]
    )
    return u[(u >= 0.0) & (u < 1.0)]


def _definition(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1)


class TestWeightedIndices:
    @given(_cdfs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_guide_table_matches_searchsorted(self, cum, seed):
        u = np.concatenate(
            [_edge_draws(cum), np.random.default_rng(seed).uniform(0.0, 1.0, 500)]
        )
        got = _cdf_indices(cum, u)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, _definition(cum, u))

    @given(_cdfs(), st.integers(1, 5_000), st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_more_draws_than_one_chunk(self, cum, extra, seed):
        u = np.random.default_rng(seed).uniform(0.0, 1.0, _CHUNK + extra)
        u[-extra:] = np.resize(_edge_draws(cum), extra)
        np.testing.assert_array_equal(_cdf_indices(cum, u), _definition(cum, u))

    def test_clips_past_the_last_entry(self):
        cum = np.array([0.25, 0.25, 0.5])
        u = np.array([0.0, 0.25, 0.4, 0.5, 0.75, np.nextafter(1.0, 0.0)])
        got = _cdf_indices(cum, u)
        np.testing.assert_array_equal(got, [0, 2, 2, 2, 2, 2])
        np.testing.assert_array_equal(got, _definition(cum, u))

    def test_single_weight(self):
        idx = weighted_indices(np.random.default_rng(0), np.array([3.5]), 1000)
        assert idx.dtype == np.int32
        assert (idx == 0).all()

    def test_same_stream_use_as_inline_inverse_cdf(self):
        weights = 1.0 + np.random.default_rng(4).pareto(1.2, 5000)
        got = weighted_indices(np.random.default_rng(9), weights, 50_000)
        cum = np.cumsum(weights / weights.sum())
        cum[-1] = 1.0
        u = np.random.default_rng(9).uniform(0.0, 1.0, 50_000)
        np.testing.assert_array_equal(got, _definition(cum, u))

    def test_proportional(self):
        weights = np.array([1.0, 0.0, 3.0, 6.0])
        idx = weighted_indices(np.random.default_rng(2), weights, 200_000)
        share = np.bincount(idx, minlength=4) / idx.size
        assert share[1] == 0.0
        assert share == pytest.approx(weights / weights.sum(), abs=0.01)
