"""Planet-scale array-backed workloads.

The paper's generator (:mod:`repro.workloads.synthetic`) materializes a
Python :class:`~repro.cluster.request.MetadataRequest` per request —
right for 66k requests, hopeless for 20 million. This module generates
the request schedule *as columns* (arrival, work, file-set index) and
keeps it that way: :class:`ArrayWorkload` duck-types the
:class:`~repro.workloads.synthetic.Workload` surface the vectorized
client path consumes (``_arrivals`` / ``_works`` / ``_fs_idx`` /
``duration`` / ``catalog``), and :class:`ArrayCatalog` duck-types
:class:`~repro.cluster.fileset.FileSetCatalog` with lazy per-name
:class:`~repro.cluster.fileset.FileSet` construction.

Documented deviations from the §5.1 recipe, both deliberate at scale:

* File-set weights are Pareto (heavy-tailed), not ``U[1,10]`` — at a
  million file sets the interesting regime is skewed popularity, and
  the uniform draw concentrates to its mean.
* Arrivals are uniform over the run rather than per-file-set Pareto
  gap trains: burst microstructure is dropped, offered *rates* are
  preserved. The per-interval load each policy must balance is the
  same; generating 1M independent gap trains is what's intractable.

File-set indices come from one inverse-CDF draw
(:func:`~repro.workloads.distributions.weighted_indices`, a guide
table over the popularity CDF) and are held as an ``int32`` column —
half the bytes of int64 at 20M requests, and the width the vectorized
driver gathers with, so it needs no copy of its own.

Both containers are immutable, so ``fork()`` returns ``self`` — which
is also what makes them zero-copy under the fork-based experiment
fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

import numpy as np

from ..cluster.fileset import FileSet
from ..sim.rng import StreamRegistry
from .calibrate import request_work_for_utilization
from .distributions import lognormal_work, weighted_indices

__all__ = ["ArrayCatalog", "ArrayWorkload", "ScaleConfig", "generate_scale"]


class ArrayCatalog:
    """A file-set inventory held as arrays, materialized per name on demand."""

    def __init__(
        self, names: List[str], total_work: np.ndarray, n_requests: np.ndarray
    ) -> None:
        if not names:
            raise ValueError("catalog needs at least one file set")
        self._names = list(names)
        self._total_work = total_work
        self._n_requests = n_requests
        self._total = float(total_work.sum())
        self._index: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        self._ensure_index()
        return name in self._index

    def __iter__(self) -> Iterator[FileSet]:
        for i, name in enumerate(self._names):
            yield FileSet(
                name=name,
                total_work=float(self._total_work[i]),
                n_requests=int(self._n_requests[i]),
            )

    def _ensure_index(self) -> None:
        if not self._index:
            self._index = {name: i for i, name in enumerate(self._names)}

    @property
    def names(self) -> List[str]:
        """All file-set names (generation order). The live list — at a
        million entries a defensive copy per access is the bug."""
        return self._names

    def get(self, name: str) -> FileSet:
        self._ensure_index()
        i = self._index[name]
        return FileSet(
            name=name,
            total_work=float(self._total_work[i]),
            n_requests=int(self._n_requests[i]),
        )

    @property
    def total_work(self) -> float:
        return self._total

    @property
    def total_requests(self) -> int:
        return int(self._n_requests.sum())

    def work_share(self, name: str) -> float:
        return self.get(name).total_work / self._total

    def weights(self) -> Dict[str, float]:
        return dict(zip(self._names, self._total_work.tolist()))


class ArrayWorkload:
    """An immutable columnar request schedule.

    Only the vectorized client path can drive it — there are no request
    objects to replay. Accessing :attr:`requests` or :meth:`replay`
    says so loudly.
    """

    def __init__(
        self,
        name: str,
        catalog: ArrayCatalog,
        arrivals: np.ndarray,
        works: np.ndarray,
        fs_idx: np.ndarray,
        duration: float,
    ) -> None:
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        self.name = name
        self.catalog = catalog
        self.duration = float(duration)
        self._arrivals = arrivals
        self._works = works
        self._fs_idx = fs_idx
        self._fs_names = catalog.names

    def replay(self):
        raise TypeError(
            "ArrayWorkload holds no per-request objects; drive it with "
            "VectorizedClientPath (the scalar driver needs "
            "generate_synthetic)"
        )

    requests = property(replay)

    def fork(self) -> "ArrayWorkload":
        """Immutable, so a 'pristine copy' is the object itself."""
        return self

    def __len__(self) -> int:
        return int(self._arrivals.shape[0])

    @property
    def total_work(self) -> float:
        return float(self._works.sum())

    @property
    def request_count(self) -> int:
        return len(self)

    def work_between(self, t0: float, t1: float) -> Dict[str, float]:
        """Per-file-set work offered in ``[t0, t1)``."""
        lo = int(np.searchsorted(self._arrivals, t0, side="left"))
        hi = int(np.searchsorted(self._arrivals, t1, side="left"))
        sums = np.bincount(
            self._fs_idx[lo:hi],
            weights=self._works[lo:hi],
            minlength=len(self._fs_names),
        )
        return dict(zip(self._fs_names, sums.tolist()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return (
            f"<ArrayWorkload {self.name!r} requests={len(self)} "
            f"filesets={len(self.catalog)} duration={self.duration}s>"
        )


@dataclass(frozen=True)
class ScaleConfig:
    """Parameters of the planet-scale workload generator.

    ``utilization`` and ``total_capacity`` calibrate mean request work
    exactly as the paper-scale generator does; ``weight_alpha`` shapes
    the Pareto popularity tail (smaller = heavier).
    """

    n_filesets: int = 1_000_000
    target_requests: int = 20_000_000
    duration: float = 1_200.0
    weight_alpha: float = 1.2
    work_sigma: float = 0.25
    utilization: float = 0.6
    total_capacity: float = 5_000.0

    def __post_init__(self) -> None:
        if self.n_filesets < 1:
            raise ValueError("need at least one file set")
        if self.target_requests < 1:
            raise ValueError("need at least one request")
        if self.weight_alpha <= 0:
            raise ValueError(f"weight_alpha must be > 0, got {self.weight_alpha}")
        if not 0 < self.utilization:
            raise ValueError(f"utilization must be > 0, got {self.utilization}")


def generate_scale(config: ScaleConfig = ScaleConfig(), seed: int = 0) -> ArrayWorkload:
    """Generate a planet-scale workload, fully vectorized.

    Deterministic in ``(config, seed)`` via the repo's seed-stream
    registry. Request count equals ``target_requests`` exactly (the
    multinomial split over file sets replaces per-file-set rounding).
    """
    registry = StreamRegistry(seed)
    m = config.n_filesets
    n = config.target_requests
    # Heavy-tailed file-set popularity.
    weights = 1.0 + registry.stream("scale/weights").pareto(config.weight_alpha, m)
    fs_idx = weighted_indices(registry.stream("scale/filesets"), weights, n)
    arrivals = np.sort(registry.stream("scale/arrivals").uniform(0.0, config.duration, n))
    mean_work = request_work_for_utilization(
        n, config.duration, config.total_capacity, config.utilization
    )
    works = lognormal_work(
        registry.stream("scale/work"), n, mean_work, config.work_sigma
    )
    # fs_idx is arrival-ordered only by coincidence of the draws; the
    # catalog totals are order-free bincounts.
    total_work = np.bincount(fs_idx, weights=works, minlength=m)
    n_requests = np.bincount(fs_idx, minlength=m)
    names = [f"/fs/{i:07d}" for i in range(m)]
    catalog = ArrayCatalog(names, total_work, n_requests)
    return ArrayWorkload(
        name=f"scale(m={m}, n={n}, seed={seed})",
        catalog=catalog,
        arrivals=arrivals,
        works=works,
        fs_idx=fs_idx,
        duration=config.duration,
    )
