"""Property-based contracts of the ``Controller`` protocol (hypothesis).

For every controller in the registry, over generated report batteries:

* the delegate's decided targets (``observe`` through the layout
  engine's ``floor_and_normalize``, as ``ANUManager.tune`` applies them)
  are normalized (sum to ``HALF``) and respect ``floor_length``;
* decisions are deterministic: two forks fed the identical sequence
  emit bit-identical decisions (the fail-over guarantee);
* observe() never invents or drops servers.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.control import CONTROLLERS, make_controller
from repro.core import LatencyReport
from repro.core.interval import HALF
from repro.core.layout import LayoutEngine

CONTROLLER_NAMES = sorted(CONTROLLERS)

latency_strategy = st.one_of(
    st.none(),  # idle interval
    st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
)


def battery_strategy(n_servers):
    round_strategy = st.lists(
        latency_strategy, min_size=n_servers, max_size=n_servers
    )
    return st.lists(round_strategy, min_size=1, max_size=8)


def decide(controller, lengths, reports):
    """One round's normalized targets, as the delegate decides them."""
    engine = LayoutEngine(floor_length=controller.floor_length)
    return engine.floor_and_normalize(controller.observe(lengths, reports))


def to_reports(latencies, idle_streaks):
    reports = []
    for sid, lat in enumerate(latencies):
        if lat is None:
            idle_streaks[sid] += 1
            reports.append(
                LatencyReport(
                    sid,
                    math.nan,
                    request_count=0,
                    idle_rounds=idle_streaks[sid],
                )
            )
        else:
            idle_streaks[sid] = 0
            reports.append(
                LatencyReport(
                    sid,
                    lat,
                    request_count=25,
                    idle_rounds=0,
                    prev_mean_latency=lat,
                )
            )
    return reports


@pytest.mark.parametrize("name", CONTROLLER_NAMES)
@given(battery=battery_strategy(4))
@settings(max_examples=25, deadline=None)
def test_decisions_normalized_and_floored(name, battery):
    controller = make_controller(name)
    lengths = {sid: HALF / 4 for sid in range(4)}
    idle = {sid: 0 for sid in range(4)}
    for latencies in battery:
        targets = decide(controller, lengths, to_reports(latencies, idle))
        total = sum(targets.values())
        assert total == pytest.approx(HALF, abs=1e-9)
        assert set(targets) == set(lengths)
        floor = controller.floor_length
        for length in targets.values():
            # floor_and_normalize floors first, then rescales; the
            # rescale can shave below the floor but never to zero.
            assert length > 0.0
            assert length >= floor * HALF / max(total, HALF) * 0.1
        lengths = targets


@pytest.mark.parametrize("name", CONTROLLER_NAMES)
@given(battery=battery_strategy(5))
@settings(max_examples=25, deadline=None)
def test_forked_delegates_decide_identically(name, battery):
    """Fail-over freeness: replica state + same reports ⇒ same decision."""
    primary = make_controller(name)
    lengths = {sid: HALF / 5 for sid in range(5)}
    idle = {sid: 0 for sid in range(5)}
    for latencies in battery:
        reports = to_reports(latencies, idle)
        # A fresh delegate per round, from the replicated controller —
        # what a newly elected delegate reconstructs.
        a, b = primary.fork(), primary.fork()
        assert decide(a, lengths, reports) == decide(b, lengths, reports)
        avg_a, avg_b = a.system_average(reports), b.system_average(reports)
        assert avg_a == avg_b or (math.isnan(avg_a) and math.isnan(avg_b))
        # Advance the authoritative copy like the manager does.
        lengths = decide(primary, lengths, reports)


@pytest.mark.parametrize("name", CONTROLLER_NAMES)
@given(
    latencies=st.lists(
        st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
        min_size=3,
        max_size=3,
    )
)
@settings(max_examples=25, deadline=None)
def test_observe_preserves_server_set(name, latencies):
    ctrl = make_controller(name)
    lengths = {sid: HALF / 3 for sid in range(3)}
    idle = {sid: 0 for sid in range(3)}
    targets = ctrl.observe(lengths, to_reports(latencies, idle))
    assert set(targets) == set(lengths)
    for value in targets.values():
        assert math.isfinite(value)
        assert value >= 0.0
