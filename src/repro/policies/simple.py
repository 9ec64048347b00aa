"""Simple randomization: the static hash baseline.

"Simple randomization employs a pseudo-random hash function to
uniformly assign file sets to servers, allowing us to compare our
system with static, offline randomized policies used in heterogeneous
clusters." (§5.1)

It never rebalances, so it "cannot respond to skew in load placement"
— in Figure 5 "the weakest server's performance keeps degrading during
the simulation and there is unused capacity on more powerful servers".

Shared state is minimal: the server list plus the (seed-derivable)
hash function.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..cluster.fileset import FileSetCatalog
from ..core.hashing import HashFamily
from .base import LoadManager, Move, PrescientKnowledge, RebalanceContext

__all__ = ["SimpleRandomization"]


class SimpleRandomization(LoadManager):
    """Static uniform hash placement over a fixed server list."""

    name = "simple"

    def __init__(self, server_ids: List[object], hash_family: Optional[HashFamily] = None) -> None:
        if not server_ids:
            raise ValueError("need at least one server")
        self.server_ids = list(server_ids)
        self.hash_family = hash_family or HashFamily()
        self._assignment: Dict[str, object] = {}

    # ------------------------------------------------------------------ #
    def initial_placement(
        self, catalog: FileSetCatalog, knowledge: Optional[PrescientKnowledge]
    ) -> Dict[str, object]:
        """Hash every file set uniformly onto the server list."""
        self._assignment = {
            name: self.server_ids[
                self.hash_family.uniform_server_choice(name, len(self.server_ids))
            ]
            for name in catalog.names
        }
        return dict(self._assignment)

    def locate(self, fileset: str) -> object:
        """O(1) table lookup (the table is hash-derivable, not shared)."""
        try:
            return self._assignment[fileset]
        except KeyError:
            # Unregistered names are still addressable by hashing — the
            # whole point of hash-based placement.
            sid = self.server_ids[
                self.hash_family.uniform_server_choice(fileset, len(self.server_ids))
            ]
            self._assignment[fileset] = sid
            return sid

    def rebalance(self, ctx: RebalanceContext) -> List[Move]:
        """Static policy: never moves anything."""
        return []

    def shared_state_entries(self) -> int:
        """Only the server list is replicated (assignments re-derive)."""
        return len(self.server_ids)
