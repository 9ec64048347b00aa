"""Discrete-event simulation kernel (the YACSIM substitute).

The paper evaluates ANU randomization with a trace-driven simulator
built on YACSIM, a C discrete-event library. This package provides the
equivalent substrate in Python:

* :class:`Simulator` — virtual clock + deterministic event calendar
* generator-based :class:`Process`\\ es
* :class:`Resource` — FIFO service stations (the paper's server queues)
* :class:`Store` — FIFO message buffers for the control plane
* :class:`Tally` / :class:`TimeSeries` — measurement collection
* :class:`StreamRegistry` — named reproducible RNG streams
"""

from .errors import (
    EventStateError,
    Interrupt,
    ProcessError,
    SchedulingError,
    SimulationError,
    StopSimulation,
)
from .events import AllOf, AnyOf, Call, Event, EventQueue, EventState, Timeout
from .kernel import Simulator
from .monitor import Tally, TimeSeries
from .process import Process
from .resources import Request, Resource, Store
from .rng import StreamRegistry

__all__ = [
    "Simulator",
    "Process",
    "Event",
    "EventState",
    "EventQueue",
    "Timeout",
    "Call",
    "AllOf",
    "AnyOf",
    "Resource",
    "Request",
    "Store",
    "Tally",
    "TimeSeries",
    "StreamRegistry",
    "SimulationError",
    "SchedulingError",
    "EventStateError",
    "ProcessError",
    "Interrupt",
    "StopSimulation",
]
