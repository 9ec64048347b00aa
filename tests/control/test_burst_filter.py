"""The multiplicative rule's burst filter on a growing overload.

``MultiplicativeController`` sheds an above-average server only when its
previous window was above the band too (``_persistently_slow``), so an
isolated latency spike does not move load. An overloaded server that
dominates the request-weighted average drags the average up with it:
its previous latency stays inside the band around the *current*
average, and the filter holds it in place while its latency keeps
growing. This pins that deadlock at the controller level, with no
engine, as the regression for a filter that can never hold an
overloaded server in place.
"""

from __future__ import annotations

import math

import pytest

from repro.control import MultiplicativeController
from repro.core import LatencyReport
from repro.core.layout import LayoutEngine

SERVERS = range(5)


def growing_overload(rounds):
    """Server 0's target after each of ``rounds`` tuning rounds.

    Five servers start at length 0.1. Each window server 0 completes
    600 of 1,000 requests and its latency grows 1.5× (2 s, 3 s, 4.5 s,
    …); the other four complete 100 each at a flat 0.1 s.
    """
    controller = MultiplicativeController()
    engine = LayoutEngine(floor_length=controller.floor_length)
    lengths = {sid: 0.1 for sid in SERVERS}
    prev = {sid: math.nan for sid in SERVERS}
    targets = []
    for window in range(rounds):
        latency = {sid: 0.1 for sid in SERVERS}
        latency[0] = 2.0 * 1.5**window
        reports = [
            LatencyReport(
                sid,
                latency[sid],
                request_count=600 if sid == 0 else 100,
                prev_mean_latency=prev[sid],
            )
            for sid in SERVERS
        ]
        lengths = engine.floor_and_normalize(controller.observe(lengths, reports))
        targets.append(lengths[0])
        prev = latency
    return targets


def test_first_round_sheds():
    first, *_ = growing_overload(1)
    assert first < 0.1


@pytest.mark.xfail(
    strict=True,
    reason="the burst filter holds a server whose latency grows every "
    "window in place: rounds 2-5 return the round-1 targets",
)
def test_a_growing_overload_keeps_shedding():
    targets = growing_overload(4)
    for before, after in zip(targets, targets[1:]):
        assert after < before
