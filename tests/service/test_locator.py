"""Locator op tests — pure ``handle()`` dispatch, no sockets needed."""

from __future__ import annotations

import math

import pytest

from repro.service.locator import LocatorService
from repro.service.recording import EpochRecord, MembershipRecord


def make_locator(**kwargs):
    powers = kwargs.pop("powers", {"s0": 1.0, "s1": 3.0})
    addresses = kwargs.pop(
        "addresses", {sid: ("127.0.0.1", 9000 + i) for i, sid in enumerate(powers)}
    )
    return LocatorService(powers, addresses, **kwargs)


class TestConstruction:
    def test_rejects_missing_address(self):
        with pytest.raises(ValueError, match="no address"):
            LocatorService({"s0": 1.0}, {})

    def test_rejects_bad_epoch(self):
        with pytest.raises(ValueError, match="epoch_seconds"):
            make_locator(epoch_seconds=0.0)

    def test_recording_seeds_initial_state(self):
        locator = make_locator(hash_seed=7)
        rec = locator.recording
        assert rec.hash_seed == 7
        assert rec.initial_servers == ("s0", "s1")
        assert set(rec.initial_lengths) == {"s0", "s1"}
        assert sum(rec.initial_lengths.values()) == pytest.approx(0.5)


class TestLocate:
    def test_locate_returns_server_and_address(self):
        locator = make_locator()
        reply = locator.handle({"op": "locate", "name": "/fs/0001"})
        assert reply["ok"]
        assert reply["server"] in ("s0", "s1")
        assert reply["port"] in (9000, 9001)
        assert locator.locates == 1

    def test_locate_is_sticky_between_tuning_rounds(self):
        locator = make_locator()
        first = locator.handle({"op": "locate", "name": "/fs/0001"})
        second = locator.handle({"op": "locate", "name": "/fs/0001"})
        assert first["server"] == second["server"]

    def test_locate_echoes_request_id(self):
        locator = make_locator()
        reply = locator.handle({"op": "locate", "name": "/fs/1", "id": 42})
        assert reply["id"] == 42

    def test_locate_rejects_bad_name(self):
        locator = make_locator()
        assert not locator.handle({"op": "locate", "name": ""})["ok"]
        assert not locator.handle({"op": "locate"})["ok"]


class TestReport:
    def test_report_feeds_the_batcher(self):
        locator = make_locator()
        reply = locator.handle(
            {"op": "report", "server": "s0", "latency": 0.25, "count": 3}
        )
        assert reply["ok"]
        counts = {r.server_id: r.request_count for r in locator.close_epoch().reports}
        assert counts["s0"] == 3
        assert locator.samples_received == 3

    @pytest.mark.parametrize(
        "message",
        [
            {"op": "report", "server": "s0", "latency": "fast"},
            {"op": "report", "server": "s0", "latency": True},
            {"op": "report", "server": "s0", "latency": 0.1, "count": True},
            {"op": "report", "server": "s0", "latency": 0.1, "count": 0},
            {"op": "report", "server": "nope", "latency": 0.1},
            {"op": "report", "server": "s0", "latency": -1.0},
        ],
    )
    def test_bad_reports_rejected_not_crashed(self, message):
        locator = make_locator()
        reply = locator.handle(message)
        assert reply["ok"] is False
        assert "error" in reply

    def test_unknown_op_rejected(self):
        locator = make_locator()
        reply = locator.handle({"op": "frobnicate"})
        assert not reply["ok"] and "unknown op" in reply["error"]


class TestEpochs:
    def test_close_epoch_tunes_and_records(self):
        locator = make_locator()
        locator.handle({"op": "report", "server": "s0", "latency": 0.9, "count": 5})
        locator.handle({"op": "report", "server": "s1", "latency": 0.1, "count": 5})
        record = locator.close_epoch()
        assert isinstance(record, EpochRecord)
        assert record.index == 1
        assert record.window == (0.0, locator.epoch_seconds)
        assert record.average_latency == pytest.approx(0.5)
        assert {r.server_id for r in record.reports} == {"s0", "s1"}
        # The slow server's region must shrink.
        assert record.lengths_after["s0"] < 0.25

    def test_idle_epoch_records_nan_average(self):
        locator = make_locator()
        record = locator.close_epoch()
        assert math.isnan(record.average_latency)
        assert all(r.request_count == 0 for r in record.reports)

    def test_map_reflects_tuning(self):
        locator = make_locator()
        before = locator.handle({"op": "map"})
        locator.handle({"op": "report", "server": "s0", "latency": 0.9, "count": 9})
        locator.handle({"op": "report", "server": "s1", "latency": 0.1, "count": 9})
        locator.close_epoch()
        after = locator.handle({"op": "map"})
        assert after["round"] == before["round"] + 1
        assert after["lengths"]["s0"] < before["lengths"]["s0"]
        assert set(after["servers"]) == {"s0", "s1"}


class TestAdmin:
    def test_join_tracks_address_batcher_and_recording(self):
        locator = make_locator()
        reply = locator.handle(
            {
                "op": "admin",
                "action": "join",
                "server": "s2",
                "host": "127.0.0.1",
                "port": 9002,
                "power": 5.0,
            }
        )
        assert reply["ok"]
        assert locator.addresses["s2"] == ("127.0.0.1", 9002)
        assert locator.recording.server_powers["s2"] == 5.0
        event = locator.recording.events[-1]
        assert isinstance(event, MembershipRecord) and event.kind == "join"
        assert "s2" in {r.server_id for r in locator.close_epoch().reports}

    def test_join_requires_address_and_power(self):
        locator = make_locator()
        assert not locator.handle(
            {"op": "admin", "action": "join", "server": "s2", "power": 1.0}
        )["ok"]
        assert not locator.handle(
            {
                "op": "admin",
                "action": "join",
                "server": "s2",
                "host": "h",
                "port": 1,
                "power": -1,
            }
        )["ok"]

    @pytest.mark.parametrize("action", ["leave", "kill"])
    def test_leave_and_kill_remove_the_server(self, action):
        locator = make_locator()
        reply = locator.handle({"op": "admin", "action": action, "server": "s1"})
        assert reply["ok"]
        assert "s1" not in locator.addresses
        event = locator.recording.events[-1]
        assert event.kind == action and event.server_id == "s1"
        assert "s1" not in {r.server_id for r in locator.close_epoch().reports}
        # Reports for the departed server now fail cleanly.
        assert not locator.handle(
            {"op": "report", "server": "s1", "latency": 0.1}
        )["ok"]

    def test_unknown_action_rejected(self):
        locator = make_locator()
        assert not locator.handle(
            {"op": "admin", "action": "dance", "server": "s0"}
        )["ok"]


class TestConvergence:
    def test_no_epochs_means_none(self):
        assert make_locator().convergence_epoch() is None

    def test_settled_run_converges(self):
        locator = make_locator()
        # Epoch 1: strong imbalance -> movement. Then balanced reports.
        locator.handle({"op": "report", "server": "s0", "latency": 0.9, "count": 9})
        locator.handle({"op": "report", "server": "s1", "latency": 0.1, "count": 9})
        locator.close_epoch()
        for _ in range(4):
            locator.handle({"op": "report", "server": "s0", "latency": 0.3, "count": 9})
            locator.handle({"op": "report", "server": "s1", "latency": 0.3, "count": 9})
            locator.close_epoch()
        convergence = locator.convergence_epoch()
        assert convergence is not None
        assert 2 <= convergence <= 5

    def test_oscillating_trajectory_does_not_converge(self):
        # Fabricated trajectory: the lengths flip every epoch, so the
        # movement never settles regardless of the controller.
        locator = make_locator()
        for flip in range(6):
            lengths = (
                {"s0": 0.1, "s1": 0.4} if flip % 2 else {"s0": 0.4, "s1": 0.1}
            )
            locator.recording.events.append(
                EpochRecord(
                    index=flip + 1,
                    window=(float(flip), float(flip + 1)),
                    reports=(),
                    average_latency=0.5,
                    lengths_after=lengths,
                    moved=3,
                )
            )
        assert locator.convergence_epoch() is None

    def test_late_movement_resets_convergence(self):
        locator = make_locator()
        trajectory = [
            {"s0": 0.25, "s1": 0.25},
            {"s0": 0.25, "s1": 0.25},
            {"s0": 0.05, "s1": 0.45},  # late disturbance
            {"s0": 0.05, "s1": 0.45},
        ]
        for i, lengths in enumerate(trajectory):
            locator.recording.events.append(
                EpochRecord(
                    index=i + 1,
                    window=(float(i), float(i + 1)),
                    reports=(),
                    average_latency=0.1,
                    lengths_after=lengths,
                    moved=0,
                )
            )
        assert locator.convergence_epoch() == 4
