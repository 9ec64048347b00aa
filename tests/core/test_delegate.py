"""Delegate statelessness and decision purity (§4 fail-over claim)."""

from __future__ import annotations

import math

import pytest

from repro.control import MultiplicativeController
from repro.core import Decision, Delegate, LatencyReport


def report(sid, lat, count=100):
    return LatencyReport(sid, lat, request_count=count, prev_mean_latency=lat)


LENGTHS = {0: 0.05, 1: 0.10, 2: 0.10, 3: 0.10, 4: 0.15}
REPORTS = [report(i, lat) for i, lat in enumerate([8.0, 2.0, 1.0, 0.9, 0.5])]


class TestStatelessness:
    def test_two_delegates_same_decision(self):
        """A freshly elected delegate reaches the identical decision —
        this is what makes delegate fail-over free of state transfer."""
        d1 = Delegate(controller=MultiplicativeController())
        d2 = Delegate(controller=MultiplicativeController())
        a = d1.decide(LENGTHS, REPORTS)
        b = d2.decide(LENGTHS, REPORTS)
        assert a.average_latency == b.average_latency
        assert a.targets == b.targets

    def test_repeated_decide_has_no_memory(self):
        d = Delegate(controller=MultiplicativeController())
        first = d.decide(LENGTHS, REPORTS)
        # Feed garbage in between; a stateless delegate cannot care.
        d.decide({0: 0.5}, [report(0, 1.0)])
        second = d.decide(LENGTHS, REPORTS)
        assert first.targets == second.targets

    def test_decision_is_normalized(self):
        d = Delegate(controller=MultiplicativeController())
        decision = d.decide(LENGTHS, REPORTS)
        assert sum(decision.targets.values()) == pytest.approx(0.5)

    def test_decision_direction(self):
        d = Delegate(controller=MultiplicativeController(deadband=0.05))
        decision = d.decide(LENGTHS, REPORTS)
        # Server 0 is way above average, server 4 way below.
        norm_before = {sid: v for sid, v in LENGTHS.items()}
        total_before = sum(norm_before.values())
        assert decision.targets[0] / 0.5 < norm_before[0] / total_before
        assert decision.targets[4] / 0.5 > norm_before[4] / total_before

    def test_all_idle_reports_keep_shares(self):
        d = Delegate(controller=MultiplicativeController())
        idle = [
            LatencyReport(sid, math.nan, request_count=0, idle_rounds=1)
            for sid in LENGTHS
        ]
        decision = d.decide(LENGTHS, idle)
        assert math.isnan(decision.average_latency)
        total = sum(LENGTHS.values())
        for sid in LENGTHS:
            assert decision.targets[sid] == pytest.approx(LENGTHS[sid] / total * 0.5)

    def test_decision_dataclass_frozen(self):
        d = Delegate()
        decision = d.decide(LENGTHS, REPORTS)
        with pytest.raises(AttributeError):
            decision.average_latency = 0.0  # type: ignore[misc]
