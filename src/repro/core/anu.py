"""The ANU randomization manager — the paper's primary contribution.

:class:`ANUManager` ties the pieces together:

* the :class:`~repro.core.hashing.HashFamily` that maps file-set names
  to unit-interval offsets (with re-hashing on unmapped misses),
* the :class:`~repro.core.interval.IntervalLayout` holding each
  server's mapped region under the half-occupancy invariant,
* the :class:`~repro.core.layout.LayoutEngine` that re-shapes regions
  with minimal movement, and
* the pluggable tuning rule — any :class:`repro.control.Controller`;
  the paper's
  :class:`~repro.control.multiplicative.MultiplicativeController` by
  default.

It maintains the authoritative file-set → server assignment, and every
reconfiguration (tuning round, failure, recovery, commissioning,
decommissioning) returns the exact set of *shed* file sets — "file sets
that it served in the previous configuration that are served by another
server in the current configuration" (§4) — so the cluster model can
charge cache-flush and cold-cache costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import LookupExhaustedError, UnknownServerError
from .hashing import HashFamily
from .interval import IntervalLayout
from .layout import LayoutEngine
from .tuning import IncompetenceDetector, LatencyReport

__all__ = ["Shed", "Reconfiguration", "ANUManager"]


@dataclass(frozen=True)
class Shed:
    """One file set moving between servers.

    ``source`` is ``None`` for a file set assigned for the first time
    (registration) or whose previous server failed.
    """

    fileset: str
    source: Optional[object]
    target: object


@dataclass
class Reconfiguration:
    """Result of one layout change (tuning round or membership event).

    Attributes
    ----------
    kind:
        ``"tune"``, ``"add"``, ``"remove"``, ``"fail"`` or ``"recover"``.
    round_index:
        Monotone counter of reconfigurations.
    average_latency:
        The delegate's system average (``nan`` for membership events).
    lengths_before / lengths_after:
        Mapped-region lengths around the change.
    sheds:
        File sets that changed servers, with old and new owner.
    newly_incompetent:
        Servers first flagged by the incompetence detector this round.
    """

    kind: str
    round_index: int
    average_latency: float
    lengths_before: Dict[object, float]
    lengths_after: Dict[object, float]
    sheds: List[Shed] = field(default_factory=list)
    newly_incompetent: List[object] = field(default_factory=list)

    @property
    def moved(self) -> int:
        """Number of file sets that changed servers."""
        return len(self.sheds)


class ANUManager:
    """Adaptive, non-uniform randomized placement of file sets.

    Parameters
    ----------
    server_ids:
        Initial cluster membership. Regions start equal-length (the
        system has no a-priori knowledge of capability).
    hash_family:
        Shared addressing family; defaults to ``HashFamily(seed=0)``.
        All nodes must use the same family — it *is* the addressing
        scheme.
    controller:
        The tuning rule, any :class:`repro.control.Controller`. Defaults
        to :func:`repro.control.default_controller`.

    Example
    -------
    >>> mgr = ANUManager(server_ids=[0, 1, 2])
    >>> mgr.register_filesets(["/home", "/var", "/srv"])
    >>> server, probes = mgr.lookup("/home")
    >>> server in (0, 1, 2) and probes >= 1
    True
    """

    def __init__(
        self,
        server_ids: Sequence[object],
        hash_family: Optional[HashFamily] = None,
        controller: Optional[object] = None,
    ) -> None:
        # Lazy import: repro.core and repro.control sit side by side,
        # and a module-level import here would cycle their package
        # initialization (importing repro.control first triggers
        # repro.core.__init__, which imports this module).
        from ..control import as_controller

        self.hash_family = hash_family or HashFamily()
        self.controller = as_controller(controller)
        self.engine = LayoutEngine(floor_length=self.controller.floor_length)
        self.layout = IntervalLayout.initial(list(server_ids))
        self.detector = IncompetenceDetector()
        self._assignments: Dict[str, object] = {}
        self._round = 0
        #: Layout-configuration epoch. Bumped on every reconfiguration;
        #: the lookup memo below is only valid within one epoch.
        self._epoch = 0
        # name -> (server, probes) memo for the *current* layout epoch.
        # Cleared (and the epoch bumped) before any reassignment runs,
        # so a stale entry can never survive a layout change.
        self._lookup_memo: Dict[str, Tuple[object, int]] = {}
        #: Cumulative count of shed file sets across all reconfigurations.
        self.total_sheds = 0
        # Observers invoked with every finished Reconfiguration (the
        # chaos harness hangs its invariant checker here). Hooks run
        # synchronously inside the reconfiguration, so a hook that
        # raises fails the membership/tuning call itself — fail-fast.
        self._reconfig_hooks: List[Callable[[Reconfiguration], None]] = []
        #: Lookup-cost counters (for the expected-two-probes property).
        self.total_lookups = 0
        self.total_probes = 0

    # ------------------------------------------------------------------ #
    # addressing
    # ------------------------------------------------------------------ #
    def lookup(self, name: str) -> Tuple[object, int]:
        """Locate the server for ``name`` by (re-)hashing.

        Returns ``(server_id, probes_used)``. Raises
        :class:`LookupExhaustedError` if every probe in the family's
        budget lands in unmapped space (probability ``2^-max_probes``
        on an intact layout).
        """
        memo = self._lookup_memo
        hit = memo.get(name)
        if hit is not None:
            # Memo entries are valid for the current epoch only; the
            # dict is cleared on every reconfiguration. Probe counters
            # still advance so mean_probes matches the uncached cost.
            self.total_lookups += 1
            self.total_probes += hit[1]
            return hit
        for r, offset in enumerate(self.hash_family.probe_sequence(name)):
            owner = self.layout.owner_at(offset)
            if owner is not None:
                self.total_lookups += 1
                self.total_probes += r + 1
                memo[name] = result = (owner, r + 1)
                return result
        raise LookupExhaustedError(
            f"no mapped region hit for {name!r} in "
            f"{self.hash_family.max_probes} probes"
        )

    @property
    def mean_probes(self) -> float:
        """Observed mean probes per lookup (≈ 2 under half occupancy)."""
        return self.total_probes / self.total_lookups if self.total_lookups else float("nan")

    @property
    def cache_epoch(self) -> int:
        """Current layout epoch (bumped on every reconfiguration)."""
        return self._epoch

    # ------------------------------------------------------------------ #
    # file-set registry
    # ------------------------------------------------------------------ #
    def register_fileset(self, name: str) -> object:
        """Add ``name`` to the managed set; returns its server."""
        if name in self._assignments:
            return self._assignments[name]
        server, _ = self.lookup(name)
        self._assignments[name] = server
        return server

    def register_filesets(self, names: Iterable[str]) -> Dict[str, object]:
        """Register many file sets; returns the name → server map."""
        return {name: self.register_fileset(name) for name in names}

    def unregister_fileset(self, name: str) -> None:
        """Remove ``name`` from the managed set."""
        self._assignments.pop(name, None)

    def assignment_of(self, name: str) -> object:
        """Current server of a registered file set."""
        try:
            return self._assignments[name]
        except KeyError:
            raise KeyError(f"file set {name!r} is not registered") from None

    @property
    def assignments(self) -> Dict[str, object]:
        """Copy of the full file-set → server map."""
        return dict(self._assignments)

    def load_counts(self) -> Dict[object, int]:
        """Number of file sets per server (all servers, zeros included)."""
        counts = {sid: 0 for sid in self.layout.server_ids}
        for sid in self._assignments.values():
            counts[sid] += 1
        return counts

    # ------------------------------------------------------------------ #
    # reconfiguration
    # ------------------------------------------------------------------ #
    def use_controller(self, controller: object) -> None:
        """Swap the tuning rule in before the control loop starts.

        Used by :class:`~repro.engine.builder.ExperimentSpec` to inject
        the experiment's controller; swapping mid-run would discard a
        stateful controller's replicated state, so do this at assembly
        time only.
        """
        from ..control import as_controller

        self.controller = as_controller(controller)
        self.engine = LayoutEngine(floor_length=self.controller.floor_length)

    def tune(self, reports: Sequence[LatencyReport]) -> Reconfiguration:
        """Run one delegate tuning round.

        Scales regions around the system-average latency, reassigns the
        file sets whose lookups changed, and returns the full record.
        """
        before = self.layout.lengths()
        targets = self.controller.observe(before, reports)
        self.engine.apply_targets(self.layout, targets)
        return self._finish(
            kind="tune",
            average=self.controller.system_average(reports),
            before=before,
        )

    def add_server(self, server_id: object, initial_length: Optional[float] = None) -> Reconfiguration:
        """Commission (or recover) a server.

        A free partition is guaranteed by the half-occupancy invariant;
        incumbents scale back proportionally.
        """
        before = self.layout.lengths()
        self.engine.admit(self.layout, server_id, initial_length)
        return self._finish(kind="add", average=float("nan"), before=before)

    def recover_server(self, server_id: object, initial_length: Optional[float] = None) -> Reconfiguration:
        """Alias of :meth:`add_server` (the paper treats them identically)."""
        rec = self.add_server(server_id, initial_length)
        rec.kind = "recover"
        return rec

    def remove_server(self, server_id: object) -> Reconfiguration:
        """Decommission a server; its file sets re-hash to survivors."""
        if server_id not in self.layout.server_ids:
            raise UnknownServerError(f"server {server_id!r} not in layout")
        before = self.layout.lengths()
        self.engine.evict(self.layout, server_id)
        return self._finish(kind="remove", average=float("nan"), before=before)

    def fail_server(self, server_id: object) -> Reconfiguration:
        """Alias of :meth:`remove_server` (failure == decommission)."""
        rec = self.remove_server(server_id)
        rec.kind = "fail"
        return rec

    # ------------------------------------------------------------------ #
    def _finish(self, kind: str, average: float, before: Dict[object, float]) -> Reconfiguration:
        # The layout just changed: invalidate the lookup memo *before*
        # reassignment so every lookup below sees the new regions (and
        # re-warms the memo for the new epoch).
        self._epoch += 1
        self._lookup_memo.clear()
        sheds = self._reassign()
        self._round += 1
        self.total_sheds += len(sheds)
        after = self.layout.lengths()
        newly = self.detector.observe(after) if kind == "tune" else []
        rec = Reconfiguration(
            kind=kind,
            round_index=self._round,
            average_latency=average,
            lengths_before=before,
            lengths_after=after,
            sheds=sheds,
            newly_incompetent=newly,
        )
        for hook in self._reconfig_hooks:
            hook(rec)
        return rec

    def add_reconfiguration_hook(self, hook: Callable[[Reconfiguration], None]) -> None:
        """Invoke ``hook(rec)`` after every reconfiguration (fail-fast)."""
        self._reconfig_hooks.append(hook)

    def _reassign(self) -> List[Shed]:
        """Recompute every registered file set's server; collect sheds."""
        sheds: List[Shed] = []
        live = set(self.layout.server_ids)
        for name, old in self._assignments.items():
            new, _ = self.lookup(name)
            if new != old:
                sheds.append(Shed(name, old if old in live else None, new))
                self._assignments[name] = new
        return sheds

    # ------------------------------------------------------------------ #
    @property
    def round_index(self) -> int:
        """Number of reconfigurations performed so far."""
        return self._round

    def lengths(self) -> Dict[object, float]:
        """Current mapped-region length per server."""
        return self.layout.lengths()

    def shared_state_entries(self) -> int:
        """Replicated-state size: (server, segment) descriptor count."""
        return self.layout.shared_state_entries()

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return (
            f"<ANUManager servers={self.layout.n_servers} "
            f"filesets={len(self._assignments)} round={self._round}>"
        )
