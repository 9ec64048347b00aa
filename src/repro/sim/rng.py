"""Named, reproducible random-number streams.

Every stochastic component of the reproduction (arrival processes,
file-set sizing, hash salts for the synthetic workload, baseline
randomization) draws from its own named stream so that

* changing how one component consumes randomness never perturbs another
  component's draws (stream independence), and
* an entire experiment is reproducible from a single root seed.

Streams are derived with :class:`numpy.random.SeedSequence` spawning
keyed by the stream name, which is the NumPy-recommended way to build
statistically independent generators.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional

import numpy as np

__all__ = ["StreamRegistry"]


def _name_key(name: str) -> int:
    """Stable 32-bit key for a stream name (CRC32 of its UTF-8 bytes)."""
    return zlib.crc32(name.encode("utf-8"))


class StreamRegistry:
    """Factory of independent named :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Root seed for the whole experiment. Two registries with the same
        seed hand out identical streams for identical names.

    Example
    -------
    >>> reg = StreamRegistry(seed=42)
    >>> arrivals = reg.stream("arrivals")
    >>> sizes = reg.stream("fileset-sizes")
    >>> reg2 = StreamRegistry(seed=42)
    >>> float(arrivals.random()) == float(reg2.stream("arrivals").random())
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._root = np.random.SeedSequence(self.seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator
        object (its state advances as it is consumed).
        """
        gen = self._streams.get(name)
        if gen is None:
            child = np.random.SeedSequence(
                entropy=self._root.entropy, spawn_key=(_name_key(name),)
            )
            gen = np.random.default_rng(child)
            self._streams[name] = gen
        return gen

    def spawn(self, name: str, count: int) -> list:
        """``count`` independent generators under the ``name`` namespace.

        Useful for per-entity streams, e.g. one arrival process per file
        set: ``reg.spawn("arrivals", n_filesets)``.
        """
        base = np.random.SeedSequence(
            entropy=self._root.entropy, spawn_key=(_name_key(name),)
        )
        return [np.random.default_rng(s) for s in base.spawn(count)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return f"<StreamRegistry seed={self.seed} streams={len(self._streams)}>"
