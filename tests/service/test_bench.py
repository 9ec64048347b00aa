"""The live bench's latency percentiles (nearest rank)."""

from __future__ import annotations

import math

import pytest

from repro.service.bench import _percentile


@pytest.mark.parametrize(
    "n,q,want",
    [
        (1, 0.50, 1.0),
        (1, 0.99, 1.0),
        (2, 0.50, 1.0),  # the smaller of two, not the larger
        (2, 0.99, 2.0),
        (3, 0.50, 2.0),
        (3, 0.99, 3.0),
        (100, 0.50, 50.0),
        (100, 0.99, 99.0),  # not the maximum
    ],
)
def test_nearest_rank(n, q, want):
    values = [float(v) for v in range(1, n + 1)]
    assert _percentile(values, q) == want


def test_empty_is_nan():
    assert math.isnan(_percentile([], 0.5))
