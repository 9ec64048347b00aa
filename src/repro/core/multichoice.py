"""Multiple-choice placement heuristic (SIEVE extension).

The paper's load-balance bound — each server holds ``ceil(m/n + 1)``
file sets with high probability — "depends on several factors including
a multiple choice heuristic that we have not described [5]" (§4). The
heuristic comes from the SIEVE strategy of Brinkmann et al.: instead of
taking the *first* mapped probe, examine the first ``d`` probes that
land in mapped regions and place the item on the least-loaded of those
candidate servers (the classic power-of-d-choices).

This is an *optional* refinement: it tightens balance from the
``m/n + Θ(lg n / lg lg n)`` of one-choice randomization to ``m/n + O(1)``,
at the cost of a small placement table (choices are no longer purely
hash-derivable). The A6 claims (DESIGN.md) measure both regimes; the main cluster experiments use plain single-choice
lookup, as the paper's evaluation does.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .errors import ConfigurationError, LookupExhaustedError
from .hashing import HashFamily
from .interval import IntervalLayout

__all__ = ["MultiChoicePlacer"]


class MultiChoicePlacer:
    """Places items on the least-loaded of ``d`` mapped probe candidates.

    Parameters
    ----------
    layout:
        The interval layout that defines mapped regions.
    hash_family:
        The shared addressing family.
    d:
        Number of *distinct mapped servers* to consider per item.

    Notes
    -----
    Because the final choice depends on observed load, it cannot be
    re-derived from the hash alone; :attr:`placements` is the extra
    state a deployment would replicate (still O(items placed), and only
    for items whose choice differed from the first probe).
    """

    def __init__(self, layout: IntervalLayout, hash_family: HashFamily, d: int = 2) -> None:
        if d < 1:
            raise ConfigurationError(f"d must be >= 1, got {d}")
        self.layout = layout
        self.hash_family = hash_family
        self.d = int(d)
        #: item name -> chosen server, for items placed so far.
        self.placements: Dict[str, object] = {}
        #: per-server item counts (the load the heuristic balances).
        self.loads: Dict[object, int] = {sid: 0 for sid in layout.server_ids}

    # ------------------------------------------------------------------ #
    def candidates(self, name: str) -> List[object]:
        """First ``d`` *distinct* mapped servers in the probe sequence."""
        found: List[object] = []
        for offset in self.hash_family.probe_sequence(name):
            owner = self.layout.owner_at(offset)
            if owner is not None and owner not in found:
                found.append(owner)
                if len(found) == self.d:
                    return found
        if found:
            # Fewer than d distinct servers are mapped at all (tiny
            # clusters): fall back to however many we found.
            return found
        raise LookupExhaustedError(
            f"no mapped probe for {name!r} within the probe budget"
        )

    def place(self, name: str) -> object:
        """Place ``name`` on the least-loaded candidate; returns the server.

        Idempotent: re-placing a known item returns its recorded server
        without perturbing loads.
        """
        existing = self.placements.get(name)
        if existing is not None:
            return existing
        cands = self.candidates(name)
        # Deterministic tie-break on repr so runs are reproducible.
        chosen = min(cands, key=lambda sid: (self.loads.get(sid, 0), repr(sid)))
        self.placements[name] = chosen
        self.loads[chosen] = self.loads.get(chosen, 0) + 1
        return chosen

    def place_all(self, names: List[str]) -> Dict[object, int]:
        """Place every name; returns the final per-server load counts."""
        for name in names:
            self.place(name)
        return dict(self.loads)

