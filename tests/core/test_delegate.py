"""Delegate statelessness and decision purity (§4 fail-over claim).

The delegate's decision is ``Controller.observe`` plus the layout
engine, which is what :meth:`ANUManager.tune` runs: two managers holding
the same replicated state reach the same decision from the same reports.
"""

from __future__ import annotations

import math

import pytest

from repro.control import MultiplicativeController
from repro.core import ANUManager, LatencyReport


def report(sid, lat, count=100):
    return LatencyReport(sid, lat, request_count=count, prev_mean_latency=lat)


LENGTHS = {0: 0.05, 1: 0.10, 2: 0.10, 3: 0.10, 4: 0.15}
REPORTS = [report(i, lat) for i, lat in enumerate([8.0, 2.0, 1.0, 0.9, 0.5])]


def manager(controller=None):
    """A manager whose replicated layout holds ``LENGTHS``."""
    mgr = ANUManager(server_ids=list(LENGTHS), controller=controller)
    mgr.engine.apply_targets(mgr.layout, LENGTHS)
    return mgr


class TestStatelessness:
    def test_two_delegates_same_decision(self):
        """A freshly elected delegate reaches the identical decision —
        this is what makes delegate fail-over free of state transfer."""
        a = manager(MultiplicativeController()).tune(REPORTS)
        b = manager(MultiplicativeController()).tune(REPORTS)
        assert a.average_latency == b.average_latency
        assert a.lengths_after == b.lengths_after

    def test_repeated_decide_has_no_memory(self):
        controller = MultiplicativeController()
        first = controller.observe(LENGTHS, REPORTS)
        # Feed garbage in between; a stateless controller cannot care.
        controller.observe({0: 0.5}, [report(0, 1.0)])
        second = controller.observe(LENGTHS, REPORTS)
        assert first == second

    def test_decision_is_normalized(self):
        rec = manager().tune(REPORTS)
        assert sum(rec.lengths_after.values()) == pytest.approx(0.5)

    def test_decision_direction(self):
        rec = manager(MultiplicativeController(deadband=0.05)).tune(REPORTS)
        # Server 0 is way above average, server 4 way below.
        assert rec.lengths_after[0] < rec.lengths_before[0]
        assert rec.lengths_after[4] > rec.lengths_before[4]

    def test_all_idle_reports_keep_shares(self):
        idle = [
            LatencyReport(sid, math.nan, request_count=0, idle_rounds=1)
            for sid in LENGTHS
        ]
        rec = manager().tune(idle)
        assert math.isnan(rec.average_latency)
        for sid in LENGTHS:
            assert rec.lengths_after[sid] == pytest.approx(LENGTHS[sid])
