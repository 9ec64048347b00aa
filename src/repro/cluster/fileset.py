"""File sets — the indivisible unit of workload assignment.

"A shared-disk file system cluster usually uses a single global
namespace, which is partitioned into file sets. A file set is a subtree
of the global namespace and also the indivisible unit of workload
assignment and movement." (§3)

A :class:`FileSet` carries its unique name (the hashing key — "specific
to clusters, such as a pathname or content fingerprint") and its total
offered workload, the paper's ``X * c`` with ``X ~ U[1, 10]``. A
:class:`FileSetCatalog` holds a whole namespace as three columns — at a
million file sets an object per name is the cost — and builds a
:class:`FileSet` only for a name it is asked about.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List

import numpy as np

__all__ = ["FileSet", "FileSetCatalog"]


@dataclass(frozen=True)
class FileSet:
    """A subtree of the global namespace.

    Attributes
    ----------
    name:
        Unique name; the key hashed by every placement policy.
    total_work:
        Total service demand (work units) this file set generates over
        the whole experiment — the paper's ``X * c``.
    n_requests:
        Number of metadata requests the file set issues.
    """

    name: str
    total_work: float
    n_requests: int

    @property
    def mean_request_work(self) -> float:
        """Average work units per request (``total_work / n_requests``)."""
        return self.total_work / self.n_requests if self.n_requests else 0.0


class FileSetCatalog:
    """The namespace's file-set inventory, held as columns.

    The catalog is what prescient policies consult for "perfect
    knowledge of workload properties": per-file-set total work, and the
    share of overall workload each file set represents (used for the
    percentage-of-workload-moved metric of Figure 7).

    ``names[i]`` has total work ``total_work[i]`` and issues
    ``n_requests[i]`` requests; a workload's file-set index column
    indexes ``names``.
    """

    def __init__(
        self, names: List[str], total_work: np.ndarray, n_requests: np.ndarray
    ) -> None:
        if not names:
            raise ValueError("catalog needs at least one file set")
        if not len(names) == len(total_work) == len(n_requests):
            raise ValueError("catalog columns differ in length")
        if len(set(names)) != len(names):
            raise ValueError("duplicate file-set names in catalog")
        self._names = list(names)
        self._work = np.asarray(total_work, dtype=np.float64)
        self._count = np.asarray(n_requests, dtype=np.int64)
        self._index: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[FileSet]:
        return map(FileSet, self._names, self._work.tolist(), self._count.tolist())

    @property
    def names(self) -> List[str]:
        """All file-set names, in index order. The live list — at a
        million entries a defensive copy per access is the bug."""
        return self._names

    def get(self, name: str) -> FileSet:
        """File set by name; raises ``KeyError`` for unknown names."""
        if not self._index:
            self._index = {n: i for i, n in enumerate(self._names)}
        i = self._index[name]
        return FileSet(name, float(self._work[i]), int(self._count[i]))

    @cached_property
    def total_work(self) -> float:
        """Sum of all file sets' total work: a sequential sum in name
        order, the one denominator every :meth:`work_share` divides by."""
        return sum(self._work.tolist())

    def work_share(self, name: str) -> float:
        """Fraction of total workload contributed by ``name``."""
        return self.get(name).total_work / self.total_work
