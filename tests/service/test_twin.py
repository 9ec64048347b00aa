"""Digital-twin parity: exact decision replay, tolerant sim replay."""

from __future__ import annotations

import math

import pytest

from repro.service.locator import LocatorService
from repro.service.recording import RequestTrace
from repro.service.twin import (
    build_twin_workload,
    replay_decisions,
    run_twin,
)


def recorded_run(epochs=5, with_membership=False):
    """A live control timeline produced without sockets: drive the
    locator's handle()/close_epoch() directly."""
    powers = {"s0": 1.0, "s1": 3.0, "s2": 5.0}
    addresses = {sid: ("127.0.0.1", 9100 + i) for i, sid in enumerate(powers)}
    locator = LocatorService(powers, addresses, epoch_seconds=1.0, hash_seed=11)
    for epoch in range(epochs):
        # Persistently slower s0 (it is the weakest server).
        locator.handle(
            {"op": "report", "server": "s0", "latency": 0.8 - 0.05 * epoch, "count": 6}
        )
        locator.handle({"op": "report", "server": "s1", "latency": 0.3, "count": 6})
        locator.handle({"op": "report", "server": "s2", "latency": 0.2, "count": 6})
        locator.close_epoch()
        if with_membership and epoch == 2:
            locator.handle(
                {
                    "op": "admin",
                    "action": "join",
                    "server": "s3",
                    "host": "127.0.0.1",
                    "port": 9103,
                    "power": 7.0,
                }
            )
            locator.handle(
                {"op": "report", "server": "s3", "latency": 0.1, "count": 2}
            )
    return locator


class TestDecisionReplay:
    def test_replay_is_exact(self):
        locator = recorded_run()
        max_l1, epochs = replay_decisions(locator.recording)
        assert epochs == 5
        assert max_l1 <= 1e-9

    def test_replay_with_membership_events_is_exact(self):
        locator = recorded_run(with_membership=True)
        max_l1, epochs = replay_decisions(locator.recording)
        assert epochs == 5
        assert max_l1 <= 1e-9

    def test_tampered_recording_is_detected(self):
        locator = recorded_run()
        recording = locator.recording
        # Corrupt one recorded decision: replay must flag it.
        bad = recording.epochs[2]
        tampered = {k: v for k, v in bad.lengths_after.items()}
        first = next(iter(tampered))
        tampered[first] += 0.05
        object.__setattr__(bad, "lengths_after", tampered)
        max_l1, _ = replay_decisions(recording)
        assert max_l1 > 1e-3

    def test_empty_recording_fails_the_report(self):
        powers = {"s0": 1.0}
        locator = LocatorService(powers, {"s0": ("127.0.0.1", 9100)})
        report = run_twin(locator.recording)
        assert not report.decision_ok
        assert not report.ok


class TestTwinWorkload:
    def test_workload_rebuilds_traces_with_time_scale(self):
        locator = recorded_run(epochs=2)
        locator.recording.time_scale = 0.5
        locator.recording.requests.extend(
            [
                RequestTrace("/fs/a", 0.1, 2.0, "s1", 0.05, True),
                RequestTrace("/fs/b", 0.6, 4.0, "s2", 0.07, True),
                RequestTrace("/fs/a", 1.4, 1.0, "s1", 0.04, True),
            ]
        )
        workload = build_twin_workload(locator.recording)
        requests = list(workload.replay())
        assert len(requests) == 3
        # Work is pre-scaled so sim service time == live sleep.
        assert requests[0][2] == pytest.approx(1.0)
        assert requests[1][2] == pytest.approx(2.0)
        assert {f.name for f in workload.catalog} == {"/fs/a", "/fs/b"}
        assert workload.duration >= 2.0

    def test_empty_request_timeline_raises(self):
        locator = recorded_run(epochs=1)
        with pytest.raises(ValueError, match="no request timeline"):
            build_twin_workload(locator.recording)


class TestRunTwin:
    def test_control_only_recording_skips_sim_and_fails(self):
        locator = recorded_run()
        report = run_twin(locator.recording)
        assert report.decision_ok
        assert report.sim_epochs == 0 and not report.sim_ok
        assert not report.ok  # no request timeline -> not a full twin

    def test_full_recording_produces_both_verdicts(self):
        locator = recorded_run(epochs=3)
        rng_traces = [
            RequestTrace(f"/fs/{i % 4}", 0.2 * i, 0.5, "s1", 0.02, True)
            for i in range(12)
        ]
        locator.recording.requests.extend(rng_traces)
        report = run_twin(locator.recording)
        assert report.decision_ok
        assert report.sim_epochs > 0
        assert math.isfinite(report.sim_max_l1)
        assert len(report.sim_distances) == report.sim_epochs
