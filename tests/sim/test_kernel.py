"""Kernel semantics: clock, ordering, run bounds, cancellation."""

from __future__ import annotations

import pytest

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
