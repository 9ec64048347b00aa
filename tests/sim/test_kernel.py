"""Kernel semantics: clock, ordering, run bounds, stop."""

from __future__ import annotations

import pytest

from repro.sim import (
    EventQueue,
    SchedulingError,
    Simulator,
)


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
        env.timeout(3.5)
        env.run()
        assert env.now == 3.5

    def test_run_until_does_not_process_later_events(self, env):
        fired = []
        ev = env.timeout(10.0)
        ev.callbacks.append(lambda e: fired.append(env.now))
        env.run(until=5.0)
        assert fired == []
        assert env.now == 5.0
        env.run(until=20.0)
        assert fired == [10.0]

    def test_negative_timeout_rejected(self, env):
        with pytest.raises(SchedulingError):
            env.timeout(-1.0)

    def test_events_processed_counter(self, env):
        for _ in range(5):
            env.timeout(1.0)
        env.run()
        assert env.events_processed == 5


class TestDeterministicOrdering:
    def test_fifo_among_equal_times(self, env):
        order = []
        for i in range(10):
            ev = env.timeout(1.0, value=i)
            ev.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == list(range(10))

    def test_time_ordering(self, env):
        order = []
        for delay in (5.0, 1.0, 3.0, 2.0, 4.0):
            ev = env.timeout(delay, value=delay)
            ev.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_urgent_priority_fires_first(self, env):
        order = []
        q = env._queue
        late = env.event().force_trigger(value="normal")
        q.push(1.0, late, EventQueue.NORMAL)
        urgent = env.event().force_trigger(value="urgent")
        q.push(1.0, urgent, EventQueue.URGENT)
        for ev in (late, urgent):
            ev.callbacks.append(lambda e: order.append(e.value))
        env.run()
        assert order == ["urgent", "normal"]

    def test_two_identical_sims_produce_identical_traces(self):
        def trace():
            env = Simulator()
            log = []

            def worker(env, wid):
                for i in range(3):
                    yield env.timeout(0.5 * (wid + 1))
                    log.append((round(env.now, 6), wid, i))

            for w in range(4):
                env.process(worker(env, w))
            env.run()
            return log

        assert trace() == trace()


class TestStop:
    def test_stop_terminates_run_with_value(self, env):
        def stopper(env):
            yield env.timeout(2.0)
            env.stop("halted")

        env.process(stopper(env))
        env.timeout(10.0)
        assert env.run() == "halted"
        assert env.now == 2.0

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
        """``now + delay`` on both paths; equal times fire in schedule order."""
        order = []
        env.timeout(0.1)
        env.run()
        delay = 0.7  # 0.1 + 0.7 is not 0.8 in binary floating point
        tm = env.timeout(delay)
        tm.callbacks.append(lambda ev: order.append(("timeout", env.now)))
        env.schedule_at(env.now + delay, lambda: order.append(("call", env.now)))
        env.run()
        assert order == [("timeout", 0.1 + 0.7), ("call", 0.1 + 0.7)]

    def test_schedule_at_past_rejected(self, env):
        env.timeout(5.0)
        env.run()
        with pytest.raises(SchedulingError):
            env.schedule_at(1.0, lambda: None)

    def test_peek(self, env):
        assert env.peek() == float("inf")
        env.timeout(4.0)
        assert env.peek() == 4.0
