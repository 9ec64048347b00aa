"""The virtual-processor baseline.

"The virtual processor system first randomly distributes file sets
into Nv virtual processors where N is the number of physical servers
and v is a scaling factor chosen from interval [1,10] ... By default,
we set the value of v to be 5. The system then utilizes perfect
knowledge about server capabilities and virtual processor workload
characteristics to map virtual processors to servers in a way that
minimizes average latency." (§5.1)

The file-set → VP map is a *static* hash (VPs are fixed buckets); only
the VP → server map is re-optimized each interval, with the same
optimizer as dynamic prescient but VPs as the indivisible items, and
the same memo: a round whose VP work, powers and incumbent map are the
last round's reuses the last solve. The
coarser the VPs (small ``Nv``), the worse the achievable balance —
Figure 8's trade-off — while shared state grows with ``Nv`` (one
address entry per VP; §5.4 and footnote 1).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cluster.fileset import FileSetCatalog
from ..core.hashing import HashFamily
from .base import LoadManager, Move, PrescientKnowledge, RebalanceContext
from .optimizer import BalanceMemo

__all__ = ["VirtualProcessorSystem"]


class VirtualProcessorSystem(LoadManager):
    """Static file-set→VP hash + prescient VP→server remapping.

    Parameters
    ----------
    server_ids:
        Physical servers (``N``).
    n_virtual:
        Total virtual processors (``Nv``); the paper default is
        ``v = 5`` → ``n_virtual = 5 * N``.
    """

    name = "virtual"

    def __init__(
        self,
        server_ids: List[object],
        n_virtual: Optional[int] = None,
        v: float = 5.0,
        hash_family: Optional[HashFamily] = None,
        tuning_interval: float = 120.0,
    ) -> None:
        if not server_ids:
            raise ValueError("need at least one server")
        self.server_ids = list(server_ids)
        if n_virtual is None:
            n_virtual = int(round(v * len(server_ids)))
        if n_virtual < 1:
            raise ValueError(f"need at least one virtual processor, got {n_virtual}")
        self.n_virtual = n_virtual
        self.hash_family = hash_family or HashFamily()
        self.tuning_interval = float(tuning_interval)
        self._solve = BalanceMemo(self.tuning_interval)
        # Static bucket map: file set -> VP index.
        self._vp_of: Dict[str, int] = {}
        # Dynamic map: VP index -> server id.
        self._server_of_vp: Dict[int, object] = {}

    # ------------------------------------------------------------------ #
    def _vp(self, fileset: str) -> int:
        vp = self._vp_of.get(fileset)
        if vp is None:
            vp = self.hash_family.uniform_server_choice(fileset, self.n_virtual)
            self._vp_of[fileset] = vp
        return vp

    def _vp_work(self, fileset_work: Dict[str, float]) -> Dict[str, float]:
        """Aggregate per-file-set work to per-VP work (keys are str ids)."""
        agg = {f"vp{v}": 0.0 for v in range(self.n_virtual)}
        for name, work in fileset_work.items():
            agg[f"vp{self._vp(name)}"] += work
        return agg

    # ------------------------------------------------------------------ #
    def initial_placement(
        self, catalog: FileSetCatalog, knowledge: Optional[PrescientKnowledge]
    ) -> Dict[str, object]:
        """Hash file sets to VPs, then optimally map VPs to servers."""
        if knowledge is None:
            raise ValueError("the virtual-processor system requires the oracle")
        for name in catalog.names:
            self._vp(name)
        items = self._vp_work(
            {
                name: knowledge.average_work.get(name, 0.0)
                or catalog.get(name).total_work * 1e-9
                for name in catalog.names
            }
        )
        vp_map = self._solve(items, dict(knowledge.server_powers))
        self._server_of_vp = {int(k[2:]): sid for k, sid in vp_map.items()}
        return self.assignments()

    def locate(self, fileset: str) -> object:
        return self._server_of_vp[self._vp(fileset)]

    def rebalance(self, ctx: RebalanceContext) -> List[Move]:
        """Re-map VPs to servers against the upcoming interval's work."""
        if ctx.knowledge is None:
            raise ValueError("the virtual-processor system requires the oracle")
        items = self._vp_work(dict(ctx.knowledge.average_work))
        current = {f"vp{v}": sid for v, sid in self._server_of_vp.items()}
        new = self._solve(items, dict(ctx.knowledge.server_powers), current=current)
        moves: List[Move] = []
        new_map = {int(k[2:]): sid for k, sid in new.items()}
        for name, vp in self._vp_of.items():
            old_sid = self._server_of_vp.get(vp)
            new_sid = new_map[vp]
            if old_sid != new_sid:
                moves.append(Move(name, old_sid, new_sid))
        self._server_of_vp = new_map
        return moves

    def shared_state_entries(self) -> int:
        """One replicated address entry per virtual processor (§5.4)."""
        return self.n_virtual

    def assignments(self) -> Dict[str, object]:
        return {name: self._server_of_vp[vp] for name, vp in self._vp_of.items()}
