"""Random-variate helpers for workload generation.

The synthetic workload of §5.1 needs: uniform file-set weights
(``X ~ U[1,10]``), heavy-tailed Pareto inter-arrival times, and
per-request service demands. The trace-shaped workload adds Zipf
file-set popularity; the columnar generators draw tens of millions of
file-set indices from a weight vector (:func:`weighted_indices`). All
draws are vectorized NumPy against explicit ``Generator`` streams so
every workload is reproducible from a seed.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pareto_gaps",
    "arrival_times_from_gaps",
    "zipf_weights",
    "lognormal_work",
    "weighted_indices",
]

#: Draws resolved per pass of :func:`_cdf_indices`: bounds the
#: transient cell/gather arrays to a few MiB whatever ``n`` is.
_CHUNK = 1 << 18


def pareto_gaps(rng: np.random.Generator, n: int, alpha: float) -> np.ndarray:
    """``n`` Pareto-distributed gaps with shape ``alpha`` and scale 1.

    Inverse-CDF sampling: ``xm * (1 - U)^(-1/alpha)`` with ``xm = 1``.
    For ``1 < alpha < 2`` the distribution is heavy-tailed with finite
    mean but infinite variance — the regime the paper's "governed by a
    Pareto distribution that is heavy-tailed" implies. Gaps are later
    rescaled to a target span, so the scale parameter is immaterial.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 gaps, got {n}")
    if alpha <= 1.0:
        raise ValueError(f"alpha must be > 1 for a finite mean, got {alpha}")
    u = rng.random(n)
    return (1.0 - u) ** (-1.0 / alpha)


def arrival_times_from_gaps(
    gaps: np.ndarray, duration: float, span_fraction: float = 0.99
) -> np.ndarray:
    """Turn raw gaps into arrival times spanning ``[g0, duration * span_fraction]``.

    The cumulative sum of gaps is linearly rescaled so the last arrival
    lands at ``duration * span_fraction``. Rescaling preserves the
    *relative* burst structure (ratios of gaps), which is what makes the
    workload bursty; only the absolute rate is pinned to produce the
    requested request count in the requested duration.
    """
    if not 0 < span_fraction <= 1:
        raise ValueError(f"span_fraction must be in (0, 1], got {span_fraction}")
    cum = np.cumsum(gaps)
    return cum * (duration * span_fraction / cum[-1])


def zipf_weights(n: int, s: float = 1.0) -> np.ndarray:
    """Normalized Zipf popularity weights ``w_i ∝ 1 / i^s`` for ranks 1..n.

    Used by the trace-shaped workload: real file-system traces
    (DFSTrace included) concentrate activity on a few hot subtrees.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if s < 0:
        raise ValueError(f"Zipf exponent must be >= 0, got {s}")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks**-s
    return w / w.sum()


def lognormal_work(
    rng: np.random.Generator, n: int, mean: float, sigma: float = 0.25
) -> np.ndarray:
    """``n`` per-request service demands, lognormal with the given *mean*.

    ``sigma`` is the shape in log space; ``mu`` is solved so that
    ``E[X] = mean`` exactly (``mu = ln(mean) - sigma^2 / 2``). A small
    sigma (default 0.25) models metadata operations: short and fairly
    uniform, with mild variability.
    """
    if mean <= 0:
        raise ValueError(f"mean work must be > 0, got {mean}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return np.full(n, mean, dtype=np.float64)
    mu = np.log(mean) - 0.5 * sigma * sigma
    return rng.lognormal(mean=mu, sigma=sigma, size=n)


def weighted_indices(
    rng: np.random.Generator, weights: np.ndarray, n: int
) -> np.ndarray:
    """``n`` indices into ``weights``, drawn proportionally, as ``int32``.

    Inverse-CDF sampling with one ``rng.uniform(0, 1, n)`` call: the
    values are exactly ``min(searchsorted(cumsum(w / w.sum()), U,
    "right"), m - 1)`` with the last CDF entry pinned to 1.0, resolved
    through a guide table (:func:`_cdf_indices`) instead of a binary
    search per draw.
    """
    cum = np.cumsum(weights / weights.sum())
    cum[-1] = 1.0
    return _cdf_indices(cum, rng.uniform(0.0, 1.0, n))


def _cdf_indices(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``min(searchsorted(cum, u, "right"), m - 1)`` as ``int32``, for ``u`` in ``[0, 1)``.

    ``cum`` is non-decreasing. Guide table (Chen & Asau): ``2^g >= 16 m``
    equal cells over ``[0, 1)``; entry ``c`` is the answer at the cell's
    left edge ``c / 2^g`` when no CDF step lies in ``(c / 2^g, (c + 1) /
    2^g]`` -- every ``u`` in the cell then shares it -- and ``-1`` when
    one does. Only draws in flagged cells (~1/16 of the mass) fall back
    to the binary search. The edges are binary fractions, so scaling by
    ``2^g`` is exact: ``floor(u * 2^g)`` names ``u``'s cell and
    ``cum_i <= c / 2^g`` exactly when ``ceil(cum_i * 2^g) <= c``.
    """
    m = cum.shape[0]
    cells = 1 << int(16 * m - 1).bit_length()
    # first[i]: the first cell whose left edge is >= cum[i]; the edge
    # answer is j on [first[j-1], first[j]) -- a run-length table.
    first = np.clip(np.ceil(cum * cells), 0, cells).astype(np.int64)
    answers = np.arange(m + 1, dtype=np.int32)
    answers[m] = m - 1
    guide = np.repeat(answers, np.diff(first, prepend=0, append=cells))
    # A step at cum[i] lies in the cell just below first[i].
    guide[first[first > 0] - 1] = -1
    out = np.empty(u.shape[0], dtype=np.int32)
    for lo in range(0, u.shape[0], _CHUNK):
        uc = u[lo : lo + _CHUNK]
        dst = out[lo : lo + uc.shape[0]]
        np.take(guide, (uc * cells).astype(np.intp), out=dst)
        step = np.flatnonzero(dst < 0)
        if step.size:
            dst[step] = np.minimum(np.searchsorted(cum, uc[step], side="right"), m - 1)
    return out
