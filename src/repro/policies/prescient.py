"""Dynamic prescient: the perfect-knowledge upper bound.

"Dynamic prescient realizes the optimal load balance through
identifying the permutation of file sets onto servers that minimizes
average latency, because it has perfect knowledge of server
capabilities and workload properties. It provides the upper bound of
load balancing." (§5.1)

Every tuning interval it asks for the file-set → server assignment
that minimizes estimated latency against the oracle's characteristic
per-file-set work, warm-started from the incumbent assignment (an
already-optimal placement therefore does not churn). The oracle's work
is constant over a run, so a round whose powers and incumbent are the
last round's gets the last answer without a new search
(:class:`~repro.policies.optimizer.BalanceMemo`). It is an experimental
yardstick, not a deployable system: the oracle reads the pre-generated
request schedule.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cluster.fileset import FileSetCatalog
from .base import LoadManager, Move, PrescientKnowledge, RebalanceContext
from .optimizer import BalanceMemo

__all__ = ["DynamicPrescient"]


class DynamicPrescient(LoadManager):
    """Re-optimizes the full file-set assignment each interval."""

    name = "prescient"

    def __init__(self, server_ids: List[object], tuning_interval: float = 120.0) -> None:
        if not server_ids:
            raise ValueError("need at least one server")
        self.server_ids = list(server_ids)
        self.tuning_interval = float(tuning_interval)
        self._solve = BalanceMemo(self.tuning_interval)
        self._assignment: Dict[str, object] = {}

    # ------------------------------------------------------------------ #
    def initial_placement(
        self, catalog: FileSetCatalog, knowledge: Optional[PrescientKnowledge]
    ) -> Dict[str, object]:
        """Optimal placement before t=0 — balanced "from the very beginning"."""
        if knowledge is None:
            raise ValueError("dynamic prescient requires the oracle")
        # Perfect knowledge of "workload properties" = characteristic
        # per-interval demand (rates), the quantity a placement can
        # actually balance. (Balancing against the raw upcoming arrival
        # schedule instead makes the system chase bursts: it re-homes
        # file sets every round, pays the §5.3 movement costs each time,
        # and ends up *worse* — measured in the A1/A2 ablations.)
        items = {
            name: knowledge.average_work.get(name, 0.0)
            or catalog.get(name).total_work * 1e-9
            for name in catalog.names
        }
        self._assignment = self._solve(items, dict(knowledge.server_powers))
        return dict(self._assignment)

    def locate(self, fileset: str) -> object:
        try:
            return self._assignment[fileset]
        except KeyError:
            raise KeyError(f"file set {fileset!r} was never placed") from None

    def rebalance(self, ctx: RebalanceContext) -> List[Move]:
        """Re-solve against the oracle's characteristic demand."""
        if ctx.knowledge is None:
            raise ValueError("dynamic prescient requires the oracle each round")
        items = {name: ctx.knowledge.average_work.get(name, 0.0) for name in self._assignment}
        new = self._solve(items, dict(ctx.knowledge.server_powers), current=self._assignment)
        moves = [
            Move(name, self._assignment[name], sid)
            for name, sid in new.items()
            if sid != self._assignment[name]
        ]
        self._assignment = new
        return moves

    def shared_state_entries(self) -> int:
        """The oracle distributes a full file-set table: O(m) entries."""
        return len(self._assignment)
