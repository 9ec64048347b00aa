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
clients live in :mod:`repro.engine`.

:class:`AccessClient` is re-exported *lazily* (PEP 562): its module
imports :mod:`repro.engine.client_path`, and loading that eagerly here
would cycle — the engine's layers import the cluster *model* modules
(``fileset``, ``server``, ``cache``), which land in this package first.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

from .cache import CacheConfig, CacheModel
from .disk import DiskArray, SharedDisk
from .fileset import FileSet, FileSetCatalog
from .namespace import Namespace, normalize_path
from .request import MetadataRequest
from .server import FileServer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .client import AccessClient

#: Lazily re-exported name -> defining submodule.
_LAZY = {"AccessClient": "client"}

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


def __getattr__(name: str):
    submodule = _LAZY.get(name)
    if submodule is not None:
        module = importlib.import_module(f".{submodule}", __name__)
        value = getattr(module, name)
        globals()[name] = value  # cache: subsequent lookups skip __getattr__
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
