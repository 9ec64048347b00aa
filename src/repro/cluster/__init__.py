"""Shared-disk cluster model.

The simulated system of §3 of the paper: a global namespace partitioned
into file sets, heterogeneous metadata file servers with FIFO queues,
server caches whose warmth is what makes moving file sets costly, and a
striped shared-disk data path behind a SAN.

* :class:`FileSet` / :class:`FileSetCatalog` — workload units
* :class:`MetadataRequest` — the short tasks servers serve
* :class:`FileServer` — heterogeneous FIFO metadata server
* :class:`CacheModel` / :class:`CacheConfig` — cost of moving file sets
* :class:`AccessClient` — the metadata-then-data access path
* :class:`SharedDisk` / :class:`DiskArray` — the data path

The simulation driver, its config/result records and the request-replay
clients live in :mod:`repro.engine`; this package imports nothing from
it.
"""

from __future__ import annotations

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "cache": ["CacheConfig", "CacheModel"],
        "client": ["AccessClient"],
        "disk": ["DiskArray", "SharedDisk"],
        "fileset": ["FileSet", "FileSetCatalog"],
        "namespace": ["Namespace", "normalize_path"],
        "request": ["MetadataRequest"],
        "server": ["FileServer"],
    },
)
