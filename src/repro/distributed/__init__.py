"""Control plane: messages, network, election, heartbeats, state.

The operational side of §4: latency reports travel to an elected
delegate over a :class:`Network`; the delegate broadcasts the new unit-
interval mapping; heartbeats detect failures; a bully election replaces
a dead delegate with zero state transfer (the delegate is stateless).

:mod:`repro.distributed.state` quantifies the replicated-state
comparison of §5.4/§6 across all schemes.
"""

from __future__ import annotations

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "chord": ["ChordNode", "ChordRing"],
        "control": ["DistributedTuningService"],
        "election": ["elect"],
        "heartbeat": ["HeartbeatMonitor"],
        "messages": ["Message", "MessageKind"],
        "network": ["Network"],
        "state": [
            "BYTES_PER_ENTRY",
            "StateFootprint",
            "anu_footprint",
            "chord_ring_footprint",
            "lookup_table_footprint",
            "simple_footprint",
            "state_table",
            "virtual_processor_footprint",
        ],
    },
)
