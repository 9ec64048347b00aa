"""Placement policies: ANU and the paper's baselines.

All five implement :class:`LoadManager`, so the cluster driver runs
any of them interchangeably:

* :class:`SimpleRandomization` — static uniform hash (§5.1)
* :class:`DynamicPrescient` — perfect-knowledge optimum (§5.1)
* :class:`VirtualProcessorSystem` — Nv VPs, prescient VP→server map (§5.1)
* :class:`ANURandomization` — the paper's system (§4)
* :class:`TableBinPacking` — O(m) lookup-table comparator (§6)
"""

from __future__ import annotations

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "anu": ["ANURandomization"],
        "base": [
            "LazyKnowledge",
            "LoadManager",
            "Move",
            "PrescientKnowledge",
            "RebalanceContext",
        ],
        "bounded": ["BoundedLoadConsistentHashing"],
        "jsq": ["JSQd"],
        "optimizer": ["balance_items", "estimated_average_latency"],
        "prescient": ["DynamicPrescient"],
        "simple": ["SimpleRandomization"],
        "table": ["TableBinPacking"],
        "vector": ["VectorANU"],
        "virtual": ["VirtualProcessorSystem"],
        "weighted": ["WeightedHashing"],
    },
)
