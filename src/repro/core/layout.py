"""Layout engine: turning target region lengths into concrete layouts.

The tuning controller (any :class:`repro.control.Controller`) decides
*how long* each server's mapped region should be; this module decides *where* the
regions sit, mutating an :class:`~repro.core.interval.IntervalLayout`
with the minimum possible disturbance:

* shrinks are applied before grows, so grown measure always lands in
  partitions the shrinkers just released (or were already free);
* each server shrinks from the tip of its region (LIFO partial-first
  order, implemented by the interval primitives), so the retained key
  space — and the caches behind it — is the oldest;
* membership changes (admit/evict, which the paper equates with
  recovery/addition and failure/removal) re-scale the survivors
  proportionally, which is exactly the paper's "all other servers are
  scaled back to preserve the half-occupancy invariant".

All operations leave the layout satisfying ``check_invariants()``.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from .errors import ConfigurationError, UnknownServerError
from .interval import EPS, HALF, IntervalLayout

__all__ = ["LayoutEngine"]


class LayoutEngine:
    """Applies target lengths and membership changes to a layout.

    Parameters
    ----------
    floor_length:
        Target lengths below this are snapped to zero. This lets the
        controller park "incompetent" servers (paper §5.2.2: extremely
        weak servers are allowed to sit idle) instead of leaving them
        slivers that would keep attracting the odd file set.
    """

    def __init__(self, floor_length: float = 1e-6) -> None:
        if floor_length < 0:
            raise ConfigurationError(f"floor_length must be >= 0, got {floor_length}")
        self.floor_length = float(floor_length)

    # ------------------------------------------------------------------ #
    @staticmethod
    def normalize(targets: Mapping[object, float]) -> Dict[object, float]:
        """Scale nonnegative ``targets`` so they sum to exactly 1/2.

        A degenerate all-zero target map (every server parked) is
        rejected — the system must keep at least some capacity mapped.
        """
        cleaned = {sid: max(0.0, float(v)) for sid, v in targets.items()}
        total = sum(cleaned.values())
        if total <= 0:
            raise ConfigurationError("all target lengths are zero; nothing to map")
        scale = HALF / total
        return {sid: v * scale for sid, v in cleaned.items()}

    def floor_and_normalize(self, targets: Mapping[object, float]) -> Dict[object, float]:
        """Snap sub-floor targets to zero, then normalize to 1/2.

        If flooring would zero *every* server (all targets tiny but not
        all zero), the floor is waived and the raw proportions are used
        — the cluster must always keep some capacity mapped.
        """
        floored = {
            sid: (0.0 if v < self.floor_length else max(0.0, float(v)))
            for sid, v in targets.items()
        }
        total = sum(floored.values())
        if total <= 0:
            floored = {sid: max(0.0, float(v)) for sid, v in targets.items()}
            total = sum(floored.values())
        if total < 1e-12:
            # Degenerate input (all zero or subnormal): dividing by the
            # total would overflow. Keep everyone at an equal share.
            floored = {sid: 1.0 for sid in targets}
        return self.normalize(floored)

    def apply_targets(self, layout: IntervalLayout, targets: Mapping[object, float]) -> None:
        """Mutate ``layout`` so each server's length matches ``targets``.

        ``targets`` must cover exactly the servers in the layout; values
        are normalized to sum to 1/2 after flooring tiny values to zero.
        """
        if set(targets) != set(layout.server_ids):
            missing = set(layout.server_ids) - set(targets)
            extra = set(targets) - set(layout.server_ids)
            raise UnknownServerError(
                f"target map mismatch: missing={sorted(map(repr, missing))} "
                f"extra={sorted(map(repr, extra))}"
            )
        goal = self.floor_and_normalize(targets)
        current = layout.lengths()
        # Shrink first (largest shrink first for determinism), then grow.
        deltas = {sid: goal[sid] - current[sid] for sid in goal}
        shrinkers = sorted(
            (sid for sid, d in deltas.items() if d < -EPS),
            key=lambda sid: (deltas[sid], repr(sid)),
        )
        growers = sorted(
            (sid for sid, d in deltas.items() if d > EPS),
            key=lambda sid: (-deltas[sid], repr(sid)),
        )
        for sid in shrinkers:
            layout.shrink(sid, -deltas[sid])
        for sid in growers:
            layout.grow(sid, deltas[sid])
        layout.check_invariants()

    # ------------------------------------------------------------------ #
    def admit(
        self,
        layout: IntervalLayout,
        server_id: object,
        initial_length: Optional[float] = None,
    ) -> None:
        """Add (or recover) a server, re-scaling incumbents to make room.

        The newcomer receives ``initial_length`` (default: an equal share
        ``1/(2 * k_new)``); incumbents are scaled by a common factor so
        the half-occupancy invariant is restored. Re-partitioning, if the
        new server count requires it, happens inside
        :meth:`IntervalLayout.add_server` and moves no load.
        """
        layout.add_server(server_id)
        k_new = layout.n_servers
        length = HALF / k_new if initial_length is None else float(initial_length)
        if not 0.0 <= length <= HALF:
            raise ConfigurationError(f"initial_length {length} outside [0, 1/2]")
        targets = {sid: v for sid, v in layout.lengths().items() if sid != server_id}
        incumbent_total = sum(targets.values())
        if incumbent_total > 0:
            scale = (HALF - length) / incumbent_total
            targets = {sid: v * scale for sid, v in targets.items()}
        targets[server_id] = length
        self.apply_targets(layout, targets)

    def evict(self, layout: IntervalLayout, server_id: object) -> None:
        """Remove (or fail) a server, re-scaling survivors to fill in.

        Survivors grow proportionally to their current lengths so that
        the half-occupancy invariant is restored; only the departed
        server's file sets re-hash (paper §4: "Only the file set(s) that
        were served previously by the failed server are re-hashed").
        """
        layout.remove_server(server_id)
        if layout.n_servers == 0:
            return
        survivors = layout.lengths()
        total = sum(survivors.values())
        if total <= 0:
            # All survivors were parked at zero; give them equal shares.
            survivors = {sid: 1.0 for sid in survivors}
        self.apply_targets(layout, survivors)
