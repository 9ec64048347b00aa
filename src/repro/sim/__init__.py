"""Discrete-event simulation kernel (the YACSIM substitute).

The paper evaluates ANU randomization with a trace-driven simulator
built on YACSIM, a C discrete-event library. This package provides the
equivalent substrate in Python:

* :class:`Simulator` — virtual clock + calendar of cancellable callbacks
  (:meth:`Simulator.schedule_at` returns a :class:`Call` entry), plus
  stations that book unobserved work between entries
* :class:`Tally` / :class:`TimeSeries` — measurement collection
* :class:`StreamRegistry` — named reproducible RNG streams
"""

from __future__ import annotations

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "kernel": ["Call", "SchedulingError", "Simulator"],
        "monitor": ["Tally", "TimeSeries"],
        "rng": ["StreamRegistry"],
    },
)
