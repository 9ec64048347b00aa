"""Measurement collection inside simulations.

Two collectors cover the paper's needs:

* :class:`Tally` — unweighted observations (e.g. per-request latency),
  with streaming mean/variance (Welford) so memory stays O(1) when raw
  samples are not retained; :class:`TallyColumns` merges pre-reduced
  batches into many tallies at once.
* :class:`TimeSeries` — timestamped samples (e.g. per-interval server
  latency reported to the delegate), retained in full for plotting the
  paper's latency-versus-time figures.

Both are deliberately simulator-agnostic: they take explicit timestamps
so they can also be unit-tested without a kernel.

The module imports no NumPy at top level: the live service client keeps
its request ledger in a :class:`Tally`, and the serving path stays
NumPy-free. Methods that build an ndarray import NumPy where they do.
"""

from __future__ import annotations

import math
from array import array
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Tally", "TallyColumns", "TimeSeries"]


class Tally:
    """Streaming statistics over unweighted observations.

    Uses Welford's algorithm for numerically stable mean/variance.
    Optionally keeps raw samples (``keep=True``) for percentile queries.

    Retained samples live in a stdlib ``array('d')`` rather than a
    Python list: one request-latency observation lands here per
    completed request, and an append to the packed buffer (amortized
    growth) is the cheapest way to keep it, while :meth:`samples_view`
    reads it as a float64 array without conversion.
    """

    __slots__ = ("_n", "_mean", "_m2", "_min", "_max", "_keep", "_buf")

    def __init__(self, keep: bool = False) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._keep = bool(keep)
        self._buf: Optional[array] = array("d") if keep else None

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        # Retain first: a BufferError (see samples_view) must leave the
        # moments as they were. observe_each/observe_moments do the same.
        if self._keep:
            self._buf.append(value)
        n = self._n = self._n + 1
        delta = value - self._mean
        self._mean += delta / n
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def observe_each(self, values: Iterable[float]) -> None:
        """Record each of ``values`` in turn, in one call.

        Bit for bit what one :meth:`observe` per value leaves: the same
        Welford update, value by value, over Python floats. A
        ``BufferError`` (see :meth:`samples_view`) leaves the tally
        unchanged. A server books its departures between two calendar
        entries with one call.
        """
        batch = array("d", values)
        if self._keep:
            self._buf.extend(batch)
        n = self._n
        mean = self._mean
        m2 = self._m2
        lo = self._min
        hi = self._max
        for value in batch:
            n += 1
            delta = value - mean
            mean += delta / n
            m2 += delta * (value - mean)
            if value < lo:
                lo = value
            if value > hi:
                hi = value
        self._n = n
        self._mean = mean
        self._m2 = m2
        self._min = lo
        self._max = hi

    # -- pickling and copying (the state owns a copy of the buffer) ------ #
    def __getstate__(self) -> dict:
        return {
            "_n": self._n,
            "_mean": self._mean,
            "_m2": self._m2,
            "_min": self._min,
            "_max": self._max,
            "_keep": self._keep,
            "_buf": self._buf[:] if self._keep else None,
        }

    def __setstate__(self, state: dict) -> None:
        for key, value in state.items():
            setattr(self, key, value)

    def observe_moments(
        self,
        count: int,
        mean: float,
        m2: float,
        minimum: float,
        maximum: float,
        samples: Optional[np.ndarray] = None,
    ) -> None:
        """Merge a pre-summarized batch with the parallel-variance update.

        For callers that already hold per-batch moments (Chan et al.:
        the batch's count, mean, M2, min and max). Mean and variance
        agree with one :meth:`observe` per value to float rounding (the
        summation order differs); count, min, max and retained samples
        are identical. ``samples`` is retained verbatim when the tally
        keeps samples; it must then have exactly ``count`` elements.
        :meth:`TallyColumns.merge` is the same update over many tallies
        at once, and is tested against this one.
        """
        if count <= 0:
            return
        if self._keep and (samples is None or samples.shape[0] != count):
            raise ValueError(
                f"tally keeps samples: need exactly {count} samples, "
                f"got {None if samples is None else samples.shape[0]}"
            )
        if self._keep:
            import numpy as np

            packed = np.ascontiguousarray(samples, dtype=np.float64)
            self._buf.frombytes(memoryview(packed).cast("B"))
        n = self._n
        if n == 0:
            self._mean = mean
            self._m2 = m2
        else:
            delta = mean - self._mean
            total = n + count
            self._mean += delta * (count / total)
            self._m2 += m2 + delta * delta * (n * count / total)
        self._n = n + count
        if minimum < self._min:
            self._min = minimum
        if maximum > self._max:
            self._max = maximum

    # ------------------------------------------------------------------ #
    @property
    def count(self) -> int:
        """Number of observations recorded."""
        return self._n

    @property
    def mean(self) -> float:
        """Sample mean; ``nan`` with zero observations."""
        return self._mean if self._n else math.nan

    @property
    def minimum(self) -> float:
        """Smallest observation; ``nan`` if empty."""
        return self._min if self._n else math.nan

    @property
    def maximum(self) -> float:
        """Largest observation; ``nan`` if empty."""
        return self._max if self._n else math.nan

    def forget_samples(self) -> None:
        """Switch off raw-sample retention (drops any retained so far).

        Streaming moments (count/mean/variance/min/max) keep working.
        The vectorized client path calls this on server tallies — it
        retains flushed latency cohorts itself, and per-server buffer
        appends would copy every observation a second time.
        """
        self._keep = False
        self._buf = None

    def samples_view(self) -> np.ndarray:
        """Raw observations as a read-only view (requires ``keep=True``).

        No copy is made — but the view pins the
        buffer: an observation while it is alive raises ``BufferError``
        (the buffer cannot grow under an exported view) and leaves the
        tally unchanged. So it is for
        aggregation-time consumers that copy into their own storage and
        drop the view at once, e.g. result assembly concatenating a
        thousand server tallies after the run.
        """
        if not self._keep:
            raise ValueError("Tally was created with keep=False; raw samples unavailable")
        import numpy as np

        view = np.frombuffer(self._buf, dtype=np.float64)
        view.flags.writeable = False
        return view

    def percentile(self, q: float) -> float:
        """``q``-th percentile (requires ``keep=True`` at construction)."""
        if not self._keep:
            raise ValueError("Tally was created with keep=False; raw samples unavailable")
        if not self._n:
            return math.nan
        import numpy as np

        return float(np.percentile(np.frombuffer(self._buf, dtype=np.float64), q))

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return f"<Tally n={self._n} mean={self.mean:.6g}>"


class TallyColumns:
    """Several tallies' streaming moments as columns, for bulk merges.

    Built from a sequence of sample-free tallies, merged any number of
    times with :meth:`merge`, and written back with :meth:`scatter`:
    a bulk flush that lands many pre-reduced batches per tally pays one
    Python read and one write per tally instead of one
    :meth:`Tally.observe_moments` call per batch.
    """

    __slots__ = ("n", "mean", "m2", "min", "max")

    def __init__(self, tallies: Sequence[Tally]) -> None:
        if any(t._keep for t in tallies):
            raise ValueError("bulk merges cannot retain samples; call forget_samples()")
        import numpy as np

        self.n = np.array([t._n for t in tallies], dtype=np.int64)
        self.mean = np.array([t._mean for t in tallies], dtype=np.float64)
        self.m2 = np.array([t._m2 for t in tallies], dtype=np.float64)
        self.min = np.array([t._min for t in tallies], dtype=np.float64)
        self.max = np.array([t._max for t in tallies], dtype=np.float64)

    def merge(
        self,
        at: np.ndarray,
        count: np.ndarray,
        mean: np.ndarray,
        m2: np.ndarray,
        minimum: np.ndarray,
        maximum: np.ndarray,
    ) -> None:
        """:meth:`Tally.observe_moments` for rows ``at``, elementwise.

        ``at`` must not repeat a row, and every ``count`` must be
        positive. Each row takes exactly the float operations, in the
        same order, that one ``observe_moments`` call would, so the
        moments match the scalar merge bit for bit.
        """
        import numpy as np

        n = self.n[at]
        old = self.mean[at]
        delta = mean - old
        total = n + count
        fresh = n == 0
        self.mean[at] = np.where(fresh, mean, old + delta * (count / total))
        self.m2[at] = np.where(
            fresh, m2, self.m2[at] + (m2 + delta * delta * ((n * count) / total))
        )
        self.n[at] = total
        lo = self.min[at]
        self.min[at] = np.where(minimum < lo, minimum, lo)
        hi = self.max[at]
        self.max[at] = np.where(maximum > hi, maximum, hi)

    def scatter(self, tallies: Sequence[Tally]) -> None:
        """Write the columns back into ``tallies`` (the same sequence)."""
        for t, n, mean, m2, lo, hi in zip(
            tallies,
            self.n.tolist(),
            self.mean.tolist(),
            self.m2.tolist(),
            self.min.tolist(),
            self.max.tolist(),
        ):
            t._n = n
            t._mean = mean
            t._m2 = m2
            t._min = lo
            t._max = hi


class TimeSeries:
    """Timestamped samples, retained in full.

    Backing storage is two parallel Python lists (cheap appends);
    :meth:`times` / :meth:`values` expose NumPy views for vectorized
    analysis, following the repo's "append in Python, analyse in NumPy"
    idiom.
    """

    __slots__ = ("name", "_t", "_v")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._t: List[float] = []
        self._v: List[float] = []

    def record(self, time: float, value: float) -> None:
        """Append one ``(time, value)`` sample. Times must be nondecreasing."""
        if self._t and time < self._t[-1]:
            raise ValueError(
                f"timestamps must be nondecreasing: got {time} after {self._t[-1]}"
            )
        self._t.append(float(time))
        self._v.append(float(value))

    def __len__(self) -> int:
        return len(self._t)

    def times(self) -> np.ndarray:
        """Sample timestamps as a float array."""
        import numpy as np

        return np.asarray(self._t, dtype=np.float64)

    def values(self) -> np.ndarray:
        """Sample values as a float array."""
        import numpy as np

        return np.asarray(self._v, dtype=np.float64)

    def window(self, t0: float, t1: float) -> Tuple[np.ndarray, np.ndarray]:
        """Samples with ``t0 <= time < t1`` as ``(times, values)`` arrays."""
        t = self.times()
        v = self.values()
        mask = (t >= t0) & (t < t1)
        return t[mask], v[mask]

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return f"<TimeSeries {self.name!r} n={len(self._t)}>"
