"""Kernel semantics: clock, ordering, run bounds, cancellation,
stations and clock skips."""

from __future__ import annotations

import math

import pytest

from repro.cluster.request import MetadataRequest
from repro.cluster.server import FileServer
from repro.engine.client_path import RequestDriver
from repro.sim import SchedulingError, Simulator


def _noop() -> None:
    pass


class TestClockAndRun:
    def test_clock_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_run_empty_calendar_is_noop(self, env):
        env.run()
        assert env.now == 0.0

    def test_run_until_advances_clock_even_without_events(self, env):
        env.run(until=100.0)
        assert env.now == 100.0

    def test_run_until_in_the_past_rejected(self, env):
        env.run(until=10.0)
        with pytest.raises(SchedulingError):
            env.run(until=5.0)

    def test_timeout_advances_clock(self, env):
        """An entry ``delay`` ahead moves the clock there."""
        env.schedule_at(env.now + 3.5, _noop)
        env.run()
        assert env.now == 3.5

    def test_run_until_does_not_process_later_events(self, env):
        fired = []
        env.schedule_at(10.0, lambda: fired.append(env.now))
        env.run(until=5.0)
        assert fired == []
        assert env.now == 5.0
        env.run(until=20.0)
        assert fired == [10.0]

    def test_negative_timeout_rejected(self, env):
        """An entry a negative delay ahead is in the past."""
        with pytest.raises(SchedulingError):
            env.schedule_at(env.now - 1.0, _noop)

    def test_events_processed_counter(self, env):
        for _ in range(5):
            env.schedule_at(1.0, _noop)
        env.run()
        assert env.events_processed == 5


class TestDeterministicOrdering:
    def test_fifo_among_equal_times(self, env):
        order = []
        for i in range(10):
            env.schedule_at(1.0, lambda i=i: order.append(i))
        env.run()
        assert order == list(range(10))

    def test_time_ordering(self, env):
        order = []
        for time in (5.0, 1.0, 3.0, 2.0, 4.0):
            env.schedule_at(time, lambda time=time: order.append(time))
        env.run()
        assert order == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_two_identical_sims_produce_identical_traces(self):
        def trace():
            env = Simulator()
            log = []

            def tick(wid, i):
                log.append((round(env.now, 6), wid, i))
                if i < 2:
                    env.schedule_at(env.now + 0.5 * (wid + 1), lambda: tick(wid, i + 1))

            for w in range(4):
                env.schedule_at(0.5 * (w + 1), lambda w=w: tick(w, 0))
            env.run()
            return log

        assert trace() == trace()


class TestStop:
    """Calendar entries: placing, cancelling, and the zero-delay hop."""

    def test_schedule_at_runs_callback(self, env):
        hits = []
        env.schedule_at(7.0, lambda: hits.append(env.now))
        env.run()
        assert hits == [7.0]

    def test_cancelled_entry_fires_as_a_counted_no_op(self, env):
        hits = []
        entry = env.schedule_at(3.0, lambda: hits.append("cancelled"))
        env.schedule_at(3.0, lambda: hits.append("kept"))
        entry.cancel()
        env.run()
        assert hits == ["kept"]
        assert env.events_processed == 2 and env.now == 3.0

    def test_schedule_at_lands_where_timeout_does(self, env):
        """``now + delay`` is kept as that float sum, and a zero-delay
        entry fires after every entry already due at this instant."""
        order = []
        env.schedule_at(0.1, _noop)
        env.run()
        delay = 0.7  # 0.1 + 0.7 is not 0.8 in binary floating point
        env.schedule_at(env.now + delay, lambda: order.append(("first", env.now)))
        env.schedule_at(
            env.now + delay,
            lambda: env.schedule_at(env.now, lambda: order.append(("hop", env.now))),
        )
        env.schedule_at(env.now + delay, lambda: order.append(("third", env.now)))
        env.run()
        assert order == [("first", 0.1 + 0.7), ("third", 0.1 + 0.7), ("hop", 0.1 + 0.7)]

    def test_schedule_at_past_rejected(self, env):
        env.schedule_at(5.0, _noop)
        env.run()
        with pytest.raises(SchedulingError):
            env.schedule_at(1.0, _noop)


class TestSkipTo:
    """A driver may skip the clock to an instant, in place of an entry
    there, only while it is before ``skip_limit()``: the earliest due
    entry, or just past the running deadline."""

    def test_refused_outside_a_run(self, env):
        assert not 1.0 < env.skip_limit()
        assert env.skip_limit() < -1e300
        assert env.now == 0.0 and env.events_processed == 0

    def test_moves_and_counts_one_event(self, env):
        seen = []

        def step():
            assert 2.5 < env.skip_limit()
            env.now = 2.5
            env.events_processed += 1
            env.schedule_at(env.now, lambda: seen.append(env.now))

        env.schedule_at(1.0, step)
        env.run(until=10.0)
        assert seen == [2.5]
        assert env.events_processed == 3

    @pytest.mark.parametrize("due", [2.5, 2.0])
    def test_refused_at_or_past_a_due_entry(self, env, due):
        seen = []
        env.schedule_at(1.0, lambda: seen.append(env.skip_limit()))
        env.schedule_at(due, _noop)
        env.run(until=10.0)
        assert seen == [due]
        assert not 2.5 < seen[0]

    def test_refused_past_the_deadline(self, env):
        seen = []
        env.schedule_at(1.0, lambda: seen.append(env.skip_limit()))
        env.schedule_at(3.0, lambda: seen.append(env.skip_limit()))
        env.run(until=4.0)
        assert seen == [3.0, math.nextafter(4.0, math.inf)]
        assert 4.0 < seen[1] <= 5.0 and not 5.0 < seen[1]
        assert env.now == 4.0

    def test_unbounded_run_has_no_deadline(self, env):
        seen = []
        env.schedule_at(1.0, lambda: seen.append(env.skip_limit()))
        env.run()
        assert seen == [math.inf]

    def test_an_entry_at_the_limit_fires_before_what_the_skip_schedules(self, env):
        """Skipping to one ulp before the limit passes no entry: the
        entry due at the limit still fires first, and a slice ending
        there is booked after it (an entry tied with a slice's end
        fires first)."""
        log = []
        _Station(env, [3.0], log)

        def step():
            limit = env.skip_limit()
            assert limit == 3.0
            env.now = math.nextafter(limit, -math.inf)
            env.events_processed += 1
            env.schedule_at(limit, lambda: log.append(("skipper", env.now)))

        env.schedule_at(1.0, step)
        env.schedule_at(3.0, lambda: log.append(("due", env.now)))
        env.run()
        assert log == [("due", 3.0), ("skipper", 3.0), ("slice", 3.0)]
        # The step entry, the skip, the two entries at the limit, the slice.
        assert env.events_processed == 5

    def test_a_driver_stops_short_of_an_entry_its_submit_scheduled(self, env):
        """A probed server puts each completion on the calendar, so the
        driver may not skip past it to the next arrival."""
        server = FileServer(env, "s", 1.0)
        clock = []

        def locate(fileset):
            clock.append(("arrive", env.now))
            return "s"

        server.probe = lambda request: clock.append(("done", env.now))
        schedule = [("/a", t, 0.5) for t in (0.0, 1.0, 1.25)]
        RequestDriver(env, schedule, locate=locate, servers={"s": server})
        env.run()
        assert clock == [
            ("arrive", 0.0), ("done", 0.5), ("arrive", 1.0), ("arrive", 1.25),
            ("done", 1.5), ("done", 2.0),
        ]
        # Two arrival entries, one skipped instant, three completion entries.
        assert env.events_processed == 6


class _Station:
    """A station whose slices end at fixed times; logs each booking."""

    def __init__(self, env, ends, log):
        self.env = env
        self.ends = list(ends)
        self.log = log
        env.stations[self] = None

    def advance(self, t):
        while self.ends and self.ends[0] < t:
            self.log.append(("slice", self.ends.pop(0)))
            self.env.events_processed += 1
        if not self.ends:
            del self.env.stations[self]


class TestStations:
    def test_advanced_before_each_entry_and_at_the_run_end(self, env):
        log = []
        _Station(env, [1.0, 2.0, 3.0, 4.0], log)
        for t in (1.5, 3.0):
            env.schedule_at(t, lambda t=t: log.append(("entry", t)))
        env.run(until=3.5)
        # The entry at 3.0 fires before the slice ending there.
        assert log == [
            ("slice", 1.0), ("entry", 1.5), ("slice", 2.0), ("entry", 3.0), ("slice", 3.0)
        ]
        assert env.events_processed == 5
        env.run()
        assert log[-1] == ("slice", 4.0) and not env.stations
        assert env.events_processed == 6

    def test_a_slice_at_the_deadline_is_booked(self, env):
        log = []
        _Station(env, [2.0, 2.000001], log)
        env.run(until=2.0)
        assert log == [("slice", 2.0)]

    def test_an_advance_that_pushes_an_earlier_entry_bounds_the_rest(self, env):
        log = []

        class Pusher:
            def advance(self, t):
                del env.stations[self]
                env.schedule_at(1.0, lambda: log.append(("pushed", env.now)))

        env.stations[Pusher()] = None
        _Station(env, [0.5, 2.0], log)
        env.schedule_at(3.0, lambda: log.append(("entry", env.now)))
        env.run()
        assert log == [("slice", 0.5), ("pushed", 1.0), ("slice", 2.0), ("entry", 3.0)]


class TestTies:
    """An entry due at exactly a slice's end fires first."""

    def test_a_tick_at_a_slice_end_does_not_see_it_completed(self, env):
        server = FileServer(env, "s", 1.0)
        seen = []
        env.schedule_at(2.0, lambda: seen.append(server.completed_requests))
        server.submit(MetadataRequest("/a", 0.0, 2.0))
        assert server in env.stations
        env.run()
        assert seen == [0]
        assert server.completed_requests == 1 and server.busy_time == 2.0
        assert env.events_processed == 2 and not env.stations

    def test_a_fail_at_a_slice_end_loses_the_head(self, env):
        server = FileServer(env, "s", 1.0)
        lost = []
        env.schedule_at(2.0, lambda: lost.append(server.fail()))
        server.submit(MetadataRequest("/a", 0.0, 2.0))
        queued = MetadataRequest("/a", 0.0, 1.0)
        server.submit(queued)
        env.run()
        assert lost == [[queued]]
        assert server.completed_requests == 0 and server.busy_time == 0.0
        # The lost slice still fires, as a cancelled entry.
        assert env.events_processed == 2 and not env.stations

    def test_an_arrival_tied_with_an_entry_is_submitted_after_it(self, env):
        server = FileServer(env, "s", 1.0)
        schedule = [("/a", t, 0.25) for t in (0.0, 1.0, 2.0)]
        driver = RequestDriver(env, schedule, locate=lambda fileset: "s", servers={"s": server})
        seen = []
        env.schedule_at(1.0, lambda: seen.append((env.now, driver.submitted)))
        env.run()
        assert seen == [(1.0, 1)]
        # A row is not stamped: its completion is its arrival plus its
        # latency, in FIFO order.
        latencies = server.completed.samples_view().tolist()
        completions = [t + latency for (_, t, _), latency in zip(schedule, latencies)]
        assert completions == [0.25, 1.25, 2.25]
        # Three arrival instants, three slices, the entry at 1.0.
        assert env.events_processed == 7
