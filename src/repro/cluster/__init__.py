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

from .cache import CacheConfig, CacheModel
from .client import AccessClient
from .disk import DiskArray, SharedDisk
from .fileset import FileSet, FileSetCatalog
from .namespace import Namespace, normalize_path
from .request import MetadataRequest
from .server import FileServer

__all__ = [
    "FileSet",
    "FileSetCatalog",
    "MetadataRequest",
    "FileServer",
    "CacheModel",
    "CacheConfig",
    "AccessClient",
    "SharedDisk",
    "DiskArray",
    "Namespace",
    "normalize_path",
]
