"""Array-native invariant sweeps for the vectorized chaos path.

The scalar :class:`~repro.faults.invariants.InvariantChecker` audits a
live :class:`~repro.core.anu.ANUManager` and a hardened client's
ledger. The vectorized path has neither — its state *is* the arrays:
an assignment vector, an alive/admitted mask pair, pending completion
chunks, and an orphan pool. :class:`VectorInvariantChecker` asserts
the same guarantees over that representation:

``request-conservation``
    Every routed request is exactly one of: flushed (completed),
    pending (queued, completion computed), orphaned (awaiting
    re-location after a crash), or — at the horizon only — discarded
    (still queued at the deadline). Nothing is lost or duplicated.
``no-lost-moments``
    The per-server streaming moment accumulators saw exactly the
    flushed requests: ``Σ completed_requests == flushed count``.
``assignment-respects-masks``
    No file set is assigned to a slot the layout evicted
    (``admitted`` false) — the vector analogue of the scalar
    ``orphaned-fileset`` invariant.
``layout-covers-alive-set`` (ANU only)
    The interval layout's membership equals the admitted-slot set, and
    the mapped measure still sums to exactly one half — the paper's
    half-occupancy guarantee survives churn.

Violations raise :class:`~repro.faults.invariants.ChaosInvariantError`
carrying the same replayable ``(seed, schedule)``
:class:`~repro.faults.invariants.ReplayArtifact` the scalar harness
ships, so a failing planet-scale run replays from one integer.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..core.interval import HALF
from .invariants import ChaosInvariantError, ReplayArtifact
from .schedule import FaultSchedule

__all__ = ["VectorInvariantChecker"]

#: Tolerance on the half-occupancy sum (matches the scalar checker).
_HALF_TOL = 1e-6


class VectorInvariantChecker:
    """Continuously audits the vectorized driver's array state.

    Parameters
    ----------
    driver:
        The :class:`~repro.engine.vector_driver.VectorizedRequestDriver`
        being audited (its chaos-mode counters and buffers).
    policy:
        The placement policy; ANU-specific layout checks run only when
        it exposes a ``layout``.
    admitted:
        ``() -> np.ndarray`` boolean mask of layout-member slots.
    server_ids:
        Driver slot order (slot index → server id).
    seed / schedule:
        Replay context embedded into every violation artifact.
    now:
        ``() -> float`` simulated clock for artifact timestamps.
    """

    def __init__(
        self,
        driver,
        policy,
        admitted: Callable[[], np.ndarray],
        server_ids,
        seed: Optional[int] = None,
        schedule: Optional[FaultSchedule] = None,
        now: Optional[Callable[[], float]] = None,
    ) -> None:
        self.driver = driver
        self.policy = policy
        self.admitted = admitted
        self.server_ids = list(server_ids)
        self.seed = seed
        self.schedule = schedule
        self.now = now or (lambda: 0.0)
        self.checks = 0
        self.violations: List[ReplayArtifact] = []

    # ------------------------------------------------------------------ #
    def check(self, trigger: str = "periodic", final: bool = False) -> None:
        """Run one full sweep; raises on the first violation."""
        self.checks += 1
        self._check_conservation(trigger, final)
        self._check_moments(trigger)
        self._check_assignment(trigger)
        self._check_layout(trigger)

    # ------------------------------------------------------------------ #
    def _fail(self, invariant: str, detail: str) -> None:
        artifact = ReplayArtifact(
            seed=self.seed,
            schedule=self.schedule,
            time=float(self.now()),
            invariant=invariant,
            detail=detail,
        )
        self.violations.append(artifact)
        raise ChaosInvariantError(
            f"invariant {invariant!r} violated at t={artifact.time:.3f}: {detail} "
            f"(replay with seed={self.seed})",
            artifact,
        )

    def _check_conservation(self, trigger: str, final: bool) -> None:
        d = self.driver
        flushed = d.landed
        pending = sum(chunk[0].size for chunk in d._pending)
        orphaned = d.orphan_count()
        discarded = d._discarded
        balance = flushed + pending + orphaned + discarded
        if d._submitted != balance:
            self._fail(
                "request-conservation",
                f"[{trigger}] submitted={d._submitted} != flushed={flushed}"
                f" + pending={pending} + orphaned={orphaned}"
                f" + discarded={discarded}",
            )
        if final and pending:
            self._fail(
                "request-conservation",
                f"[{trigger}] {pending} pending completions survive the "
                "final flush",
            )

    def _check_moments(self, trigger: str) -> None:
        d = self.driver
        counted = sum(s.completed_requests for s in d._servers)
        if d.landed != counted:
            self._fail(
                "no-lost-moments",
                f"[{trigger}] flushed={d.landed} != per-server "
                f"completed_requests sum={counted}",
            )

    def _check_assignment(self, trigger: str) -> None:
        admitted = self.admitted()
        if admitted.all():
            return
        assign = np.asarray(self.driver._assignment())
        bad = np.flatnonzero(~admitted[assign])
        if bad.size:
            slot = int(assign[bad[0]])
            self._fail(
                "assignment-respects-masks",
                f"[{trigger}] {bad.size} file sets assigned to evicted "
                f"slot {slot} ({self.server_ids[slot]!r})",
            )

    def _check_layout(self, trigger: str) -> None:
        layout = getattr(self.policy, "layout", None)
        if layout is None:
            return  # non-interval policies have no layout to audit
        admitted = self.admitted()
        members = set(layout.server_ids)
        member_slots = {
            i for i, sid in enumerate(self.server_ids) if sid in members
        }
        admitted_slots = set(np.flatnonzero(admitted).tolist())
        if member_slots != admitted_slots:
            self._fail(
                "layout-covers-alive-set",
                f"[{trigger}] layout members {sorted(member_slots)} != "
                f"admitted slots {sorted(admitted_slots)}",
            )
        total = layout.total_mapped
        if abs(total - HALF) > _HALF_TOL:
            self._fail(
                "half-occupancy",
                f"[{trigger}] mapped measure {total:.9f} != {HALF}",
            )
