"""``repro.control`` — the pluggable tuning-controller layer.

One protocol (:class:`Controller`), several decision procedures:

======================  ==============================================
``multiplicative``      The paper's averaging rule (the default;
                        pinned to recorded golden digests).
``pi``                  Proportional-integral with anti-windup.
``pole``                First-order pole placement (stateless).
``brownout``            Saturated service-level dimmer with EWMA
                        smoothing (rubbis/brownout style).
``forecast``            Holt demand-forecast wrapper around any of the
                        above (default inner: multiplicative).
======================  ==============================================

Every consumer of tuning decisions — the scalar
:class:`~repro.core.delegate.Delegate`, :class:`~repro.core.anu.ANUManager`,
the vectorized :class:`~repro.policies.vector.VectorANU`, the
distributed control plane, and the convergence analysis — resolves its
controller through :func:`as_controller`, so the default lives in
exactly one place (:func:`default_controller`) and the scalar and
vector paths can never silently diverge.

Layering: this package sits beside ``repro.core`` (it imports only the
core tuning primitives: reports and averaging rules) and strictly below
the engine — importing ``repro.engine``, ``repro.experiments``, or
``repro.cluster`` from here is banned by ``tools/check_layering.py``.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from ..core.errors import ConfigurationError
from .base import Controller
from .batch import EpochBatcher
from .brownout import BrownoutController
from .feedback import PIController, PolePlacementController
from .forecast import ForecastingController
from .multiplicative import MultiplicativeController

__all__ = [
    "Controller",
    "EpochBatcher",
    "MultiplicativeController",
    "PIController",
    "PolePlacementController",
    "BrownoutController",
    "ForecastingController",
    "CONTROLLERS",
    "default_controller",
    "make_controller",
    "as_controller",
]

#: Registry used by the experiment CLI and the control ablation bench.
CONTROLLERS: Dict[str, Type[Controller]] = {
    MultiplicativeController.name: MultiplicativeController,
    PIController.name: PIController,
    PolePlacementController.name: PolePlacementController,
    BrownoutController.name: BrownoutController,
    "forecast": ForecastingController,
}


def default_controller() -> Controller:
    """The system-wide default tuning rule — the paper's.

    This is *the* factory behind every ``controller=None`` default
    (scalar delegate, ANU manager, vector ANU, convergence analysis):
    change it here and every path changes together.
    """
    return MultiplicativeController()


def make_controller(name: str, **kwargs) -> Controller:
    """Instantiate a registered controller by name.

    ``kwargs`` are the class's constructor knobs. ``forecast`` also
    accepts an ``inner=<Controller>`` keyword (default: multiplicative)
    or, instead of it, the default inner rule's knobs.
    """
    try:
        cls = CONTROLLERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown controller {name!r}; options: {sorted(CONTROLLERS)}"
        ) from None
    return cls(**kwargs)


def as_controller(obj: Optional[object]) -> Controller:
    """Resolve a ``controller=`` argument to a Controller.

    ``None`` → :func:`default_controller`; a :class:`Controller` passes
    through; anything else is a :class:`ConfigurationError`.
    """
    if obj is None:
        return default_controller()
    if isinstance(obj, Controller):
        return obj
    raise ConfigurationError(
        f"expected a Controller or None; got {type(obj).__name__}"
    )
