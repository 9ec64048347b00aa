"""The load-manager interface shared by ANU and every baseline.

The cluster driver (:mod:`repro.engine.engine`) is policy-agnostic:
it routes each request through :meth:`LoadManager.locate`, and at every
tuning interval hands the policy the servers' latency reports plus — for
policies entitled to it — *prescient knowledge* of the upcoming
interval. The four systems of the paper differ only in how they
implement this interface:

========================  ==========  =====================  ============
System                    adapts?     uses knowledge?        shared state
========================  ==========  =====================  ============
simple randomization      no          no                     O(1)
dynamic prescient         每 interval  yes (oracle)           n/a (oracle)
virtual processors        每 interval  yes (oracle)           O(#VP)
ANU randomization         每 interval  no (reports only)      O(k)
========================  ==========  =====================  ============
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..cluster.fileset import FileSetCatalog
from ..core.tuning import LatencyReport

__all__ = [
    "Move",
    "PrescientKnowledge",
    "LazyKnowledge",
    "RebalanceContext",
    "LoadManager",
    "RelocationStats",
]


@dataclass(frozen=True)
class Move:
    """One file set re-assigned from ``source`` to ``target``."""

    fileset: str
    source: Optional[object]
    target: object


@dataclass(frozen=True)
class PrescientKnowledge:
    """Oracle information available to prescient-class policies.

    Attributes
    ----------
    server_powers:
        True service rate of every live server (work units / second).
    average_work:
        Long-run work per tuning interval per file set (rate × interval).
        This is the paper's "perfect knowledge of ... workload
        characteristics" — the characteristic demand, not the future
        arrival schedule. Dynamic prescient and the virtual-processor
        system both use this view; giving them the upcoming schedule
        would let them dodge individual bursts and make them a stronger
        oracle than the paper's baselines. ANU reads neither field.
    """

    server_powers: Mapping[object, float]
    average_work: Mapping[str, float]


class LazyKnowledge:
    """A :class:`PrescientKnowledge` that is computed on first read.

    Building the oracle costs a scan of the live servers every tuning
    round (the catalog's mean demand is built once per engine).
    Policies that never consult the oracle (simple, ANU) should
    not pay that price, so the driver hands out this proxy instead: the
    factory runs once, at the first attribute access, and not at all if
    nobody reads it.

    The proxy is intentionally *not* ``None``: policies gate on
    ``ctx.knowledge is None`` to detect "oracle withheld", and a lazy
    oracle is still an oracle.
    """

    __slots__ = ("_factory", "_value")

    def __init__(self, factory) -> None:
        self._factory = factory
        self._value: Optional[PrescientKnowledge] = None

    def _materialize(self) -> PrescientKnowledge:
        value = self._value
        if value is None:
            value = self._value = self._factory()
        return value

    @property
    def server_powers(self) -> Mapping[object, float]:
        return self._materialize().server_powers

    @property
    def average_work(self) -> Mapping[str, float]:
        return self._materialize().average_work


@dataclass
class RebalanceContext:
    """Everything a policy may consult during one tuning round.

    ``reports`` are the live servers' latency reports for the closing
    interval. ``knowledge`` is the prescient oracle for the *upcoming*
    interval; only prescient-class policies may read it.
    """

    now: float
    round_index: int
    reports: Sequence[LatencyReport]
    knowledge: Optional[PrescientKnowledge] = None


class RelocationStats:
    """Per-kind relocation accounting shared by the at-scale policies.

    A *relocation round* is one reconfiguration (tuning round or
    membership change) in which the policy re-resolved some subset of
    its catalog; ``relocated`` counts the names actually re-resolved
    (not the names that changed owner — that is ``total_sheds``).
    ``relocate_fraction`` is relocated work over the total opportunity
    (rounds × catalog size at the time), so a full re-resolution per
    round reads exactly 1.0 and an incremental policy reads the moved
    mass. Mixing policies call :meth:`_init_relocation_stats` in their
    constructor and :meth:`_note_relocation` once per round; the probe
    publishers drain :meth:`consume_last_relocation`.
    """

    #: How reconfigurations re-resolve the catalog: ``incremental`` =
    #: only names the epoch delta can invalidate (``VectorANU``);
    #: ``native`` = the policy's own structure is already incremental
    #: (displacement ledgers, candidate re-picks).
    relocate_mode: str = "native"

    def _init_relocation_stats(self) -> None:
        self.relocated_total = 0
        self.relocation_rounds = 0
        self.relocation_opportunity = 0
        self.relocated_by_kind: Dict[str, int] = {}
        self.reshuffle_seconds = 0.0
        self._last_relocation: Optional[Dict[str, object]] = None

    def _note_relocation(
        self, kind: str, relocated: int, catalog_size: int, seconds: float
    ) -> None:
        self.relocation_rounds += 1
        self.relocated_total += relocated
        self.relocation_opportunity += catalog_size
        self.relocated_by_kind[kind] = self.relocated_by_kind.get(kind, 0) + relocated
        self.reshuffle_seconds += seconds
        self._last_relocation = {
            "kind": kind,
            "relocated": relocated,
            "catalog_size": catalog_size,
            "seconds": seconds,
            "mode": self.relocate_mode,
        }

    def consume_last_relocation(self) -> Optional[Dict[str, object]]:
        """Pop the most recent round's record (``None`` if drained)."""
        info, self._last_relocation = self._last_relocation, None
        return info

    @property
    def relocate_fraction(self) -> float:
        """Relocated names over the total opportunity (0 when no rounds)."""
        if not self.relocation_opportunity:
            return 0.0
        return self.relocated_total / self.relocation_opportunity


class LoadManager(abc.ABC):
    """Abstract placement policy.

    Life cycle: :meth:`initial_placement` once before the simulation
    starts, then :meth:`locate` per request (hot path, must be O(1) or
    near), then :meth:`rebalance` once per tuning interval.
    """

    #: Human-readable policy name (used in reports and figures).
    name: str = "abstract"

    @abc.abstractmethod
    def initial_placement(
        self, catalog: FileSetCatalog, knowledge: Optional[PrescientKnowledge]
    ) -> Dict[str, object]:
        """Assign every file set before t=0; returns name → server."""

    @abc.abstractmethod
    def locate(self, fileset: str) -> object:
        """Server currently responsible for ``fileset``."""

    @abc.abstractmethod
    def rebalance(self, ctx: RebalanceContext) -> List[Move]:
        """Run one tuning round; returns the file sets that moved."""

    @abc.abstractmethod
    def shared_state_entries(self) -> int:
        """Replicated-state size in table entries (paper §5.4 metric).

        Conventions: simple randomization needs only the server list
        (``k`` entries); ANU replicates its region map (O(k) segments);
        virtual processors replicate one address per VP; a lookup-table
        scheme replicates one row per file set. The prescient oracle
        reports the table it would need to distribute (O(m)).
        """

    # -- optional membership hooks (default: unsupported) ----------------- #
    def server_failed(self, server_id: object) -> List[Move]:
        """React to a server failure; returns re-routed file sets."""
        raise NotImplementedError(f"{self.name} does not support membership changes")

    def server_added(self, server_id: object, power_hint: Optional[float] = None) -> List[Move]:
        """React to a server addition/recovery; returns moved file sets."""
        raise NotImplementedError(f"{self.name} does not support membership changes")

    def assignments(self) -> Dict[str, object]:
        """Snapshot of the full file-set → server map (diagnostics)."""
        raise NotImplementedError
