"""Shared-state accounting across placement schemes (§5.4, §6).

The paper's scalability argument is about *replicated state*: what
every node must hold (and re-synchronize on change) to address any
file set.

* **ANU**: the unit-interval map — O(k) region descriptors ("the unit
  interval is the only shared state", §5.4).
* **Virtual processors**: "it is essential to keep the address
  information for each individual virtual processor" — O(Nv) entries
  (footnote 1 notes a Chord-style ring alternative trading replication
  for log(n) probes).
* **Lookup table / bin-packing**: one row per file set — O(m) (§6).
* **Simple randomization**: just the server list — O(k).

:func:`state_table` produces the comparison used by the Figure 8
discussion and the A5 claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.interval import IntervalLayout

__all__ = [
    "BYTES_PER_ENTRY",
    "StateFootprint",
    "anu_footprint",
    "virtual_processor_footprint",
    "lookup_table_footprint",
    "simple_footprint",
    "chord_ring_footprint",
    "state_table",
]

#: Nominal bytes per replicated entry (an id plus an address/offset
#: pair). The absolute constant is immaterial; comparisons are ratios.
BYTES_PER_ENTRY = 24


@dataclass(frozen=True)
class StateFootprint:
    """Replicated-state cost of one scheme.

    ``lookup_probes`` is the expected number of probes to address a
    file set (the other axis of the trade-off: the Chord variant of VP
    shrinks state but pays log(n) probes).
    """

    scheme: str
    entries: int
    lookup_probes: float

    @property
    def bytes(self) -> int:
        """Nominal replicated bytes."""
        return self.entries * BYTES_PER_ENTRY


def anu_footprint(layout: IntervalLayout) -> StateFootprint:
    """ANU's region map: one entry per (server, segment)."""
    return StateFootprint(
        scheme="anu", entries=layout.shared_state_entries(), lookup_probes=2.0
    )


def virtual_processor_footprint(n_virtual: int) -> StateFootprint:
    """Replicated VP address table: one entry per VP."""
    if n_virtual < 1:
        raise ValueError(f"need >= 1 virtual processor, got {n_virtual}")
    return StateFootprint(scheme="virtual", entries=n_virtual, lookup_probes=1.0)


def chord_ring_footprint(n_virtual: int) -> StateFootprint:
    """The footnote-1 alternative: Chord-style ring, log2(Nv) probes."""
    import math

    if n_virtual < 1:
        raise ValueError(f"need >= 1 virtual processor, got {n_virtual}")
    return StateFootprint(
        scheme="virtual-chord",
        entries=max(1, int(math.ceil(math.log2(max(2, n_virtual))))),
        lookup_probes=max(1.0, math.log2(max(2, n_virtual))),
    )


def lookup_table_footprint(n_filesets: int) -> StateFootprint:
    """Bin-packing lookup table: one row per file set."""
    if n_filesets < 1:
        raise ValueError(f"need >= 1 file set, got {n_filesets}")
    return StateFootprint(scheme="table", entries=n_filesets, lookup_probes=1.0)


def simple_footprint(n_servers: int) -> StateFootprint:
    """Simple randomization: the server list only."""
    if n_servers < 1:
        raise ValueError(f"need >= 1 server, got {n_servers}")
    return StateFootprint(scheme="simple", entries=n_servers, lookup_probes=1.0)


def state_table(
    layout: IntervalLayout, n_virtual: int, n_filesets: int
) -> List[StateFootprint]:
    """The full comparison for one cluster configuration."""
    return [
        simple_footprint(layout.n_servers),
        anu_footprint(layout),
        virtual_processor_footprint(n_virtual),
        chord_ring_footprint(n_virtual),
        lookup_table_footprint(n_filesets),
    ]
