"""The stateless delegate decision procedure.

"At the end of each interval, each server computes its latency in the
past interval and reports it to an elected delegate server. ... The
delegate is designed to be stateless and determines the new load
configuration based solely on reported latencies. If the delegate
fails, the next elected delegate runs the same protocol with the same
information." (§4)

:class:`Delegate` is that pure decision procedure: given the replicated
layout (lengths) and the round's reports, produce the new target
lengths. Statelessness is load-bearing for fault tolerance — the test
suite asserts that two delegate instances given identical inputs emit
identical decisions, which is what makes delegate fail-over free.

The decision *rule* is pluggable: any :class:`repro.control.Controller`
(the paper's multiplicative rule by default). A controller with
internal state (PI integrator, EWMA filter) treats that state as
replicated alongside the layout — a newly elected delegate receives it
via ``Controller.fork()`` and reaches the identical decision, so the
fail-over guarantee survives the generalization.

The message-passing and election machinery that *hosts* a delegate
lives in :mod:`repro.distributed`; this module is deliberately free of
any simulator dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from .layout import LayoutEngine
from .tuning import LatencyReport

__all__ = ["Decision", "Delegate"]


@dataclass(frozen=True)
class Decision:
    """The delegate's output for one tuning round.

    ``targets`` are *normalized* lengths (summing to 1/2) — exactly the
    new mapping of servers to the unit interval that the delegate
    distributes to all servers, "the only replicated state needed by
    our algorithm" (§4).
    """

    average_latency: float
    targets: Dict[object, float]


class Delegate:
    """Stateless tuning decision procedure.

    Any server can instantiate one with the (agreed, replicated)
    controller and produce the round's decision from the reports alone.
    ``controller`` is any :class:`repro.control.Controller`; the default
    is :func:`repro.control.default_controller`.
    """

    def __init__(self, controller: Optional[object] = None) -> None:
        # Lazy import: repro.core and repro.control sit side by side,
        # and a module-level import here would cycle their package
        # initialization (importing repro.control first triggers
        # repro.core.__init__, which imports this module).
        from ..control import as_controller

        self.controller = as_controller(controller)
        self._engine = LayoutEngine(floor_length=self.controller.floor_length)

    def decide(
        self,
        current_lengths: Mapping[object, float],
        reports: Sequence[LatencyReport],
    ) -> Decision:
        """Compute the new normalized target lengths for this round.

        Deterministic in its inputs and the controller's replicated
        state, so a freshly elected delegate (holding a
        ``Controller.fork()`` of that state) reaches the identical
        decision from the same reports.
        """
        raw = self.controller.observe(current_lengths, reports)
        targets = self._engine.floor_and_normalize(raw)
        return Decision(
            average_latency=self.controller.system_average(reports),
            targets=targets,
        )
