"""ANU randomization as a :class:`LoadManager` — the system under test.

A thin adapter over :class:`repro.core.ANUManager`. Note what it does
*not* use: ``ctx.knowledge`` (the prescient oracle) is ignored — ANU
adapts purely from the servers' latency reports, which is the paper's
central claim ("achieves load balance without a-priori knowledge of
heterogeneity", §5.2.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cluster.fileset import FileSetCatalog
from ..core.anu import ANUManager
from ..core.hashing import HashFamily
from .base import LoadManager, Move, PrescientKnowledge, RebalanceContext

__all__ = ["ANURandomization"]


class ANURandomization(LoadManager):
    """Adaptive, non-uniform randomized placement."""

    name = "anu"

    def __init__(
        self,
        server_ids: List[object],
        hash_family: Optional[HashFamily] = None,
        controller: Optional[object] = None,
    ) -> None:
        self.manager = ANUManager(
            server_ids=server_ids,
            hash_family=hash_family,
            controller=controller,
        )
        #: Servers flagged incompetent so far (paper §5.2.2: "ANU
        #: randomization identifies such incompetent components and
        #: notifies administrators").
        self.incompetent: List[object] = []

    # ------------------------------------------------------------------ #
    def initial_placement(
        self, catalog: FileSetCatalog, knowledge: Optional[PrescientKnowledge]
    ) -> Dict[str, object]:
        """Equal regions + hashing; the oracle is deliberately unused."""
        return self.manager.register_filesets(catalog.names)

    def locate(self, fileset: str) -> object:
        return self.manager.assignment_of(fileset)

    def rebalance(self, ctx: RebalanceContext) -> List[Move]:
        """One delegate tuning round driven only by latency reports."""
        rec = self.manager.tune(list(ctx.reports))
        self.incompetent.extend(rec.newly_incompetent)
        return [Move(s.fileset, s.source, s.target) for s in rec.sheds]

    def use_controller(self, controller: object) -> None:
        """Swap the tuning rule in at assembly time (see ANUManager)."""
        self.manager.use_controller(controller)

    @property
    def controller(self) -> object:
        """The active tuning rule (a :class:`repro.control.Controller`)."""
        return self.manager.controller

    def shared_state_entries(self) -> int:
        """O(k) region descriptors — "the unit interval is the only
        shared state" (§5.4)."""
        return self.manager.shared_state_entries()

    # ------------------------------------------------------------------ #
    def server_failed(self, server_id: object) -> List[Move]:
        rec = self.manager.fail_server(server_id)
        return [Move(s.fileset, s.source, s.target) for s in rec.sheds]

    def server_added(self, server_id: object, power_hint: Optional[float] = None) -> List[Move]:
        rec = self.manager.add_server(server_id)
        return [Move(s.fileset, s.source, s.target) for s in rec.sheds]

    def assignments(self) -> Dict[str, object]:
        return self.manager.assignments

    @property
    def region_lengths(self) -> Dict[object, float]:
        """Current mapped-region length per server (diagnostics)."""
        return self.manager.lengths()
