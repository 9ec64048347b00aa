"""Theoretical load-balance bounds (§4, last paragraph).

"Load balance in this scheme is within a small constant factor of
optimal. For n servers and m file sets, each server contains load
``ceil(m/n + 1)`` with high probability. This result depends on several
factors including a multiple choice heuristic ... This variance is as
small as any known bound for randomized placement and compares
favorably to simple randomization in which load is bounded by
``ceil(m/n + Θ(lg n / lg lg n) + 1)``."

This module gives ANU's bound as a function and the empirical
machinery (balls-into-bins Monte Carlo over the actual hash family) to
check it: the A6 claims of ``repro.experiments.claims`` hold measured
d-choice max loads to the bound and one-choice overshoot above them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..core.hashing import HashFamily
from ..core.interval import IntervalLayout
from ..core.multichoice import MultiChoicePlacer

__all__ = ["anu_balance_bound", "BalanceSample", "measure_balance"]


def anu_balance_bound(m: int, n: int) -> int:
    """ANU's w.h.p. per-server load bound: ``ceil(m/n + 1)``."""
    if m < 0 or n < 1:
        raise ValueError(f"need m >= 0, n >= 1; got m={m}, n={n}")
    return math.ceil(m / n + 1)


@dataclass(frozen=True)
class BalanceSample:
    """One Monte Carlo measurement of placement balance."""

    scheme: str
    m: int
    n: int
    max_load: int
    min_load: int
    mean_load: float

    @property
    def overshoot(self) -> float:
        """``max_load - m/n``: the quantity the bounds constrain."""
        return self.max_load - self.m / self.n


def measure_balance(
    m: int,
    n: int,
    trials: int = 20,
    d: int = 2,
    seed: int = 0,
) -> Dict[str, List[BalanceSample]]:
    """Empirical balance of three schemes over ``trials`` hash seeds.

    Schemes measured (equal-capacity servers, ``m`` unit file sets):

    * ``single`` — first mapped probe on an equal-share ANU layout
      (one-choice randomized placement over the interval);
    * ``multi`` — the SIEVE d-choice heuristic on the same layout (the
      configuration the paper's ``m/n + 1`` bound describes);
    * ``uniform`` — plain hash-mod-n (classic balls into bins).
    """
    if trials < 1:
        raise ValueError(f"need >= 1 trial, got {trials}")
    out: Dict[str, List[BalanceSample]] = {"single": [], "multi": [], "uniform": []}
    server_ids = list(range(n))
    names = [f"item-{i}" for i in range(m)]
    for t in range(trials):
        family = HashFamily(seed=seed + t)
        layout = IntervalLayout.initial(server_ids)

        # single choice over the interval
        loads = {sid: 0 for sid in server_ids}
        for name in names:
            for off in family.probe_sequence(name):
                owner = layout.owner_at(off)
                if owner is not None:
                    loads[owner] += 1
                    break
        out["single"].append(_sample("single", m, n, loads))

        # d-choice over the interval
        placer = MultiChoicePlacer(layout, family, d=d)
        loads_mc = placer.place_all(names)
        out["multi"].append(_sample("multi", m, n, loads_mc))

        # plain uniform hashing
        loads_u = {sid: 0 for sid in server_ids}
        for name in names:
            loads_u[family.uniform_server_choice(name, n)] += 1
        out["uniform"].append(_sample("uniform", m, n, loads_u))
    return out


def _sample(scheme: str, m: int, n: int, loads: Dict[object, int]) -> BalanceSample:
    vals = np.array(list(loads.values()), dtype=np.int64)
    return BalanceSample(
        scheme=scheme,
        m=m,
        n=n,
        max_load=int(vals.max()),
        min_load=int(vals.min()),
        mean_load=float(vals.mean()),
    )
