"""Hash family and unit-interval addressing.

ANU randomization hashes the *unique name* of each file set to an offset
in the unit interval (its "hashed offset", §4 of the paper). Offsets
falling into unmapped regions are re-hashed "using the next hash function
among an agreed upon family of hash functions" until they land in a
mapped region.

:class:`HashFamily` provides that agreed-upon family: ``h_r(name)`` is a
salted BLAKE2b digest interpreted as a 64-bit fraction. The family is

* deterministic — every node computes the same offsets with no shared
  state beyond the family seed (this is the paper's "efficient
  addressing" property);
* uniform — digest bits are uniform on [0, 1) for any name distribution;
* independent across rounds — each round uses a distinct salt.

A salted digest costs a few hundred nanoseconds from Python, so at
catalog scale hashing *is* the placement cost: a million names times a
handful of rounds is seconds. :meth:`HashFamily.batch_offsets` is the one
bulk entry point (every vector-path digest goes through it, which is
also where the benchmark counts them), and its callers are expected to
hash only the ``(name, round)`` pairs they read
(:class:`repro.core.vector.ProbeMatrix`).

Probe offsets are memoized per name: ``h_r(name)`` is a pure function
of ``(seed, name, r)``, so once computed it is valid forever. Lookups
re-probe the same bounded catalog of file-set names on every
reconfiguration, which without the memo re-runs BLAKE2b for every
(name, round) pair each time. The memo is derived state and is
excluded from pickles (workers rebuild it on demand).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence

from .errors import ConfigurationError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["HashFamily", "DEFAULT_MAX_PROBES"]

#: Probe budget for re-hashing. Each probe misses a half-occupied
#: interval with probability 1/2, so 64 probes fail with p = 2^-64.
DEFAULT_MAX_PROBES = 64

_TWO64 = float(2**64)


class HashFamily:
    """A family of independent hash functions onto the unit interval.

    Parameters
    ----------
    seed:
        Family seed. Two families with the same seed are identical —
        this is what makes addressing shared-state-free: every cluster
        node derives the same family from a single agreed integer.
    max_probes:
        Number of rounds available for re-hashing.
    """

    def __init__(self, seed: int = 0, max_probes: int = DEFAULT_MAX_PROBES) -> None:
        if max_probes < 1:
            raise ConfigurationError(f"max_probes must be >= 1, got {max_probes}")
        self.seed = int(seed)
        self.max_probes = int(max_probes)
        # Pre-compute per-round salts once; hashing is on the hot path of
        # every placement lookup.
        self._salts: List[bytes] = [
            self.seed.to_bytes(8, "little", signed=False) + r.to_bytes(4, "little")
            for r in range(self.max_probes)
        ]
        # name -> probe offsets computed so far (grown lazily, in round
        # order). Offsets are pure in (seed, name, round), so entries
        # never need invalidation.
        self._probe_cache: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------ #
    def _grow_probes(self, name: str, upto: int) -> List[float]:
        """Return ``name``'s cached offsets, extended to ``upto`` rounds."""
        offs = self._probe_cache.get(name)
        if offs is None:
            offs = self._probe_cache[name] = []
        if len(offs) < upto:
            encoded = name.encode("utf-8")
            blake2b = hashlib.blake2b
            salts = self._salts
            for r in range(len(offs), upto):
                digest = blake2b(encoded, digest_size=8, salt=salts[r]).digest()
                offs.append(int.from_bytes(digest, "little") / _TWO64)
        return offs

    def offset(self, name: str, round_: int = 0) -> float:
        """Hashed offset of ``name`` in [0, 1) for probe ``round_``."""
        if not 0 <= round_ < self.max_probes:
            raise ConfigurationError(
                f"round {round_} outside probe budget [0, {self.max_probes})"
            )
        offs = self._probe_cache.get(name)
        if offs is None or round_ >= len(offs):
            offs = self._grow_probes(name, round_ + 1)
        return offs[round_]

    def probe_sequence(self, name: str) -> Iterable[float]:
        """Lazily yield the offsets of ``name`` for rounds 0, 1, 2, ...

        Consumers stop at the first offset that lands in a mapped
        region; on average two values are consumed (half occupancy).
        Consumed rounds are memoized, so repeated sequences over the
        same catalog stop costing BLAKE2b digests.
        """
        offs = self._probe_cache.get(name)
        if offs is None:
            offs = self._probe_cache[name] = []
        for r in range(self.max_probes):
            if r >= len(offs):
                self._grow_probes(name, r + 1)
            yield offs[r]

    # ------------------------------------------------------------------ #
    def offsets(self, names: Sequence[str], round_: int = 0) -> np.ndarray:
        """Vectorized :meth:`offset` over many names (one round)."""
        import numpy as np

        return np.fromiter(
            (self.offset(n, round_) for n in names),
            dtype=np.float64,
            count=len(names),
        )

    def batch_offsets(self, names: Sequence[str], round_: int = 0) -> np.ndarray:
        """One probe round over many names, bypassing the per-name memo.

        :meth:`offsets` memoizes per name — right for the scalar lookup
        path, wrong for million-name batches, where a dict-of-lists
        costs more memory and time than the digests themselves. This
        digests straight into a float array; values are bit-identical
        to :meth:`offset` for every ``(name, round_)``.
        """
        import numpy as np

        if not 0 <= round_ < self.max_probes:
            raise ConfigurationError(
                f"round {round_} outside probe budget [0, {self.max_probes})"
            )
        # One salted state per batch; each name pays a copy, an update
        # and a digest instead of a keyword-parsing constructor call.
        # uint64 -> float64 rounds to nearest-even exactly as
        # ``int / 2.0**64`` does, and the power-of-two division is exact.
        fresh = hashlib.blake2b(digest_size=8, salt=self._salts[round_]).copy
        digests = []
        append = digests.append
        for name in names:
            state = fresh()
            state.update(name.encode())  # UTF-8, as in _grow_probes
            append(state.digest())
        return np.frombuffer(b"".join(digests), dtype="<u8") / _TWO64

    def offset_matrix(self, names: Sequence[str], rounds: int) -> np.ndarray:
        """``(len(names), rounds)`` matrix of offsets.

        Used by analysis code (e.g. expected-probe-count studies) that
        wants the full probe sequence of a name set at once.
        """
        if rounds > self.max_probes:
            raise ConfigurationError(
                f"requested {rounds} rounds > probe budget {self.max_probes}"
            )
        import numpy as np

        out = np.empty((len(names), rounds), dtype=np.float64)
        for r in range(rounds):
            out[:, r] = self.offsets(names, r)
        return out

    def uniform_server_choice(self, name: str, n_servers: int) -> int:
        """Static uniform server assignment (the *simple randomization*
        baseline): ``floor(h_0(name) * n)``.

        Kept here so the baseline and ANU share one hashing substrate —
        differences in results are then attributable to the placement
        policy, not the hash.
        """
        if n_servers < 1:
            raise ConfigurationError(f"n_servers must be >= 1, got {n_servers}")
        return min(int(self.offset(name, 0) * n_servers), n_servers - 1)

    # -- pickling (the memo is derived state; ship only the identity) --- #
    def __getstate__(self) -> dict:
        return {"seed": self.seed, "max_probes": self.max_probes}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["seed"], state["max_probes"])  # type: ignore[misc]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HashFamily)
            and other.seed == self.seed
            and other.max_probes == self.max_probes
        )

    def __hash__(self) -> int:  # pragma: no cover - trivial
        return hash((self.seed, self.max_probes))

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return f"HashFamily(seed={self.seed}, max_probes={self.max_probes})"
