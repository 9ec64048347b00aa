"""Fault schedules: validation, canonical encoding, seeded generation."""

from __future__ import annotations

import json

import pytest

from repro.faults import FaultEvent, FaultKind, FaultSchedule, random_schedule


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(1.0, "meteor")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(-1.0, FaultKind.CRASH, target=0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(1.0, FaultKind.CRASH, target=0, duration=-5.0)

    def test_dict_round_trip_preserves_tuple_target(self):
        event = FaultEvent(3.0, FaultKind.PARTITION, target=(1, 2), duration=10.0)
        again = FaultEvent.from_dict(json.loads(json.dumps(event.to_dict())))
        assert again == event
        assert isinstance(again.target, tuple)


class TestFaultSchedule:
    def test_events_sorted_on_construction(self):
        sched = FaultSchedule(
            events=(
                FaultEvent(9.0, FaultKind.CRASH, target=1),
                FaultEvent(2.0, FaultKind.CRASH, target=0),
            )
        )
        assert [e.time for e in sched] == [2.0, 9.0]

    def test_json_round_trip(self):
        sched = FaultSchedule(
            events=(
                FaultEvent(1.0, FaultKind.STRAGGLE, target=3, duration=20.0, params=(0.25,)),
                FaultEvent(4.0, FaultKind.LINK_FAULTS, duration=10.0, params=(0.05, 0.02, 0.002)),
                FaultEvent(8.0, FaultKind.PARTITION, target=(2,), duration=15.0),
            )
        )
        assert FaultSchedule.from_json(sched.to_json()) == sched

    def test_json_is_canonical(self):
        a = FaultSchedule(
            events=(
                FaultEvent(1.0, FaultKind.CRASH, target=0, duration=5.0),
                FaultEvent(2.0, FaultKind.CRASH, target=1, duration=5.0),
            )
        )
        b = FaultSchedule(events=tuple(reversed(a.events)))
        assert a.to_json() == b.to_json()


class TestRandomSchedule:
    def test_same_seed_same_schedule(self):
        kw = dict(duration=600.0, server_ids=[0, 1, 2, 3, 4], fault_rate=0.02)
        assert random_schedule(seed=5, **kw) == random_schedule(seed=5, **kw)

    def test_different_seed_different_schedule(self):
        kw = dict(duration=600.0, server_ids=[0, 1, 2, 3, 4], fault_rate=0.02)
        assert random_schedule(seed=5, **kw) != random_schedule(seed=6, **kw)

    def test_zero_rate_is_empty(self):
        sched = random_schedule(
            seed=1, duration=600.0, server_ids=[0, 1], fault_rate=0.0
        )
        assert len(sched.events) == 0

    def test_events_within_injection_window(self):
        sched = random_schedule(
            seed=2, duration=1000.0, server_ids=[0, 1, 2], fault_rate=0.05
        )
        assert len(sched.events) > 0
        for event in sched:
            assert 0.05 * 1000.0 <= event.time <= 0.7 * 1000.0
            assert 30.0 <= event.duration <= 90.0

    def test_targets_drawn_from_server_ids(self):
        sched = random_schedule(
            seed=3,
            duration=1000.0,
            server_ids=["a", "b"],
            fault_rate=0.05,
            kinds=(FaultKind.CRASH, FaultKind.STRAGGLE),
        )
        assert all(e.target in ("a", "b") for e in sched)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            random_schedule(seed=1, duration=100.0, server_ids=[0], fault_rate=-0.1)

    def test_invalid_outage_bounds_rejected(self):
        with pytest.raises(ValueError):
            random_schedule(
                seed=1,
                duration=100.0,
                server_ids=[0],
                fault_rate=0.1,
                min_outage=50.0,
                max_outage=10.0,
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            random_schedule(
                seed=1, duration=100.0, server_ids=[0], fault_rate=0.1, kinds=("meteor",)
            )
