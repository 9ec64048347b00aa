"""ASCII rendering of interval layouts.

A debugging and teaching aid: draws the unit interval as one character
cell per fraction of a partition, labeling each server's region — the
textual analogue of the paper's Figure 2/3 diagrams.

>>> from repro.core import IntervalLayout
>>> from repro.core.render import render_layout
>>> print(render_layout(IntervalLayout.initial([0, 1])))  # doctest: +SKIP
|000.|1100|....|....|   P=4, mapped=0.500
"""

from __future__ import annotations

from typing import Dict, List

from .interval import IntervalLayout

__all__ = ["render_layout"]

#: Glyphs assigned to servers in id order; '.' is unmapped space.
_FREE = "."


def _glyph_map(layout: IntervalLayout) -> Dict[object, str]:
    glyphs = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    out: Dict[object, str] = {}
    for i, sid in enumerate(sorted(layout.server_ids, key=repr)):
        out[sid] = glyphs[i % len(glyphs)]
    return out


def render_layout(layout: IntervalLayout, cells_per_partition: int = 4) -> str:
    """Render the layout: one line, ``cells_per_partition`` chars per
    partition, partitions separated by ``|``.

    Each cell shows the server occupying that slice of the partition
    (partial partitions show the prefix occupancy), or ``.`` if free.
    """
    if cells_per_partition < 1:
        raise ValueError("cells_per_partition must be >= 1")
    glyphs = _glyph_map(layout)
    p_width = 1.0 / layout.n_partitions
    cell = p_width / cells_per_partition
    parts: List[str] = []
    for p in range(layout.n_partitions):
        chars = []
        for c in range(cells_per_partition):
            x = p * p_width + (c + 0.5) * cell
            owner = layout.owner_at(x)
            chars.append(glyphs[owner] if owner is not None else _FREE)
        parts.append("".join(chars))
    legend = ", ".join(
        f"{glyphs[sid]}={sid!r}" for sid in sorted(layout.server_ids, key=repr)
    )
    return (
        "|" + "|".join(parts) + f"|   P={layout.n_partitions}, "
        f"mapped={layout.total_mapped:.3f}\n servers: {legend}"
    )

