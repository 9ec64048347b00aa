"""The :class:`Controller` protocol — one seam for every tuning rule.

The paper's delegate "examines all latencies and comes up with an
'average' value for the whole system [and] scales down the mapped
regions for servers above the average" (§4). *How* the regions are
scaled is a pluggable decision procedure: the paper's multiplicative
rule is one controller among several (PI, pole placement, brownout,
demand forecasting), all speaking the same contract:

``observe(current_lengths, reports) -> raw targets``

* ``current_lengths`` is the replicated layout state (mapped-region
  length per server), ``reports`` the round's
  :class:`~repro.core.tuning.LatencyReport` batch.
* The returned targets are *not yet normalized*; every consumer runs
  them through :meth:`~repro.core.layout.LayoutEngine.apply_targets`
  (or ``floor_and_normalize``), which floors sub-``floor_length``
  regions to zero and rescales the rest to the half-occupancy sum.

**The fail-over contract.** The paper's delegate is stateless: "if the
delegate fails, the next elected delegate runs the same protocol with
the same information" (§4). Controllers with internal state (PI
integrators, EWMA filters) model that state as *replicated alongside
the layout*: :meth:`fork` produces the exact controller a newly
elected delegate would reconstruct from the replicated state, and two
forks fed identical report sequences must emit identical targets (the
property tests pin this). :meth:`system_average` must remain a pure
function of the reports — the distributed control plane asserts that
an out-of-band forked delegate reaches the manager's average exactly.
"""

from __future__ import annotations

import copy
import math
from abc import ABC, abstractmethod
from typing import Dict, Mapping, Sequence

from ..core.errors import ConfigurationError
from ..core.interval import HALF
from ..core.tuning import AVERAGING_RULES, LatencyReport

__all__ = ["Controller"]


class Controller(ABC):
    """One tuning decision procedure: latency reports in, targets out.

    Subclasses override :meth:`observe`; everything else has sensible
    shared behaviour. Class attributes double as the default knobs —
    instances may shadow them.
    """

    #: Registry / bench name of the rule (subclasses override).
    name: str = "controller"
    #: ``True`` when :meth:`observe` reads no internal state. Stateful
    #: controllers must still be fork-deterministic (see module doc).
    stateless: bool = True
    #: Regions thinner than this are floored to zero when the layout
    #: engine applies the targets (every consumer builds its
    #: :class:`~repro.core.layout.LayoutEngine` from this value).
    floor_length: float = 1e-4
    #: Averaging rule for :meth:`system_average` (key into
    #: :data:`~repro.core.tuning.AVERAGING_RULES`).
    averaging: str = "weighted"
    #: Idle-server probe: every ``idle_backoff`` idle rounds, grow the
    #: idle server's region to at least ``idle_seed`` so a parked server
    #: gets re-tested (the paper's weak servers "mostly sit idle").
    idle_seed: float = 0.03
    idle_backoff: int = 5

    # ------------------------------------------------------------------ #
    @abstractmethod
    def observe(
        self,
        current_lengths: Mapping[object, float],
        reports: Sequence[LatencyReport],
    ) -> Dict[object, float]:
        """New raw target lengths for one tuning round.

        Must return a target for *every* server in ``current_lengths``
        and raise :class:`~repro.core.errors.ConfigurationError` on
        reports from servers outside the layout (use
        :meth:`_reports_by_id`).
        """

    def system_average(self, reports: Sequence[LatencyReport]) -> float:
        """The delegate's "average" latency over the *active* reporters.

        Pure in the reports — never reads or writes controller state
        (the distributed control plane's divergence assertion relies on
        this).
        """
        active = [r for r in reports if not r.is_idle]
        if not active:
            return math.nan
        return AVERAGING_RULES[self.averaging](active)

    def fork(self) -> "Controller":
        """The controller a freshly elected delegate reconstructs.

        Deep copy: identical configuration *and* identical replicated
        state, fully isolated from this instance. Stateless controllers
        could return ``self``, but a copy keeps the contract uniform
        (and trivially safe against future state).
        """
        return copy.deepcopy(self)

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #
    def _reports_by_id(
        self,
        current_lengths: Mapping[object, float],
        reports: Sequence[LatencyReport],
    ) -> Dict[object, LatencyReport]:
        """Index reports by server, rejecting out-of-layout reporters."""
        by_id = {r.server_id: r for r in reports}
        unknown = set(by_id) - set(current_lengths)
        if unknown:
            raise ConfigurationError(
                f"reports from servers not in the layout: "
                f"{sorted(map(repr, unknown))}"
            )
        return by_id

    def _idle_target(self, length: float, idle_rounds: int = 1) -> float:
        """Target for a server that served nothing this round."""
        if idle_rounds % self.idle_backoff == 0:
            return max(length, self.idle_seed)
        return length

    @staticmethod
    def _validate_clamp(max_step: float, deadband: float) -> None:
        """Validate the per-round step clamp and the deadband."""
        if max_step <= 1.0:
            raise ConfigurationError(f"max_step must be > 1, got {max_step}")
        if deadband < 0:
            raise ConfigurationError(f"deadband must be >= 0, got {deadband}")

    def _validate_common(self) -> None:
        """Shared knob validation (call from subclass ``__init__``)."""
        if self.averaging not in AVERAGING_RULES:
            raise ConfigurationError(
                f"unknown averaging rule {self.averaging!r}; "
                f"options: {sorted(AVERAGING_RULES)}"
            )
        if not 0.0 <= self.idle_seed <= HALF:
            raise ConfigurationError(
                f"idle_seed {self.idle_seed} outside [0, 1/2]"
            )
        if self.idle_backoff < 1:
            raise ConfigurationError(
                f"idle_backoff must be >= 1, got {self.idle_backoff}"
            )
        if not 0.0 < self.floor_length < HALF:
            raise ConfigurationError(
                f"floor_length {self.floor_length} outside (0, 1/2)"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetics
        return f"<{type(self).__name__} name={self.name!r}>"
