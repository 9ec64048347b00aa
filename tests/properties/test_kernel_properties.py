"""Property-based tests of the simulation kernel (hypothesis)."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sim import Simulator


class TestCalendarProperties:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_events_fire_in_time_order(self, times):
        env = Simulator()
        fired = []
        for i, t in enumerate(times):
            env.schedule_at(t, lambda i=i: fired.append((env.now, i)))
        env.run()
        # Time order, and schedule order among equal times.
        assert fired == sorted(fired)
        assert len(fired) == len(times)
        assert env.now == max(times)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=50,
        ),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_run_until_is_a_clean_cut(self, times, horizon):
        env = Simulator()
        fired = []
        for t in times:
            env.schedule_at(t, lambda t=t: fired.append(t))
        env.run(until=horizon)
        assert sorted(fired) == sorted(t for t in times if t <= horizon)
        assert env.now == horizon
        # the rest still fire on a later run
        env.run()
        assert sorted(fired) == sorted(times)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.floats(min_value=0.001, max_value=10.0, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_process_interleaving_is_deterministic(self, spec):
        """Self-rescheduling callbacks interleave the same way every run."""

        def trace():
            env = Simulator()
            log = []

            def step(wid, delay, i):
                log.append((wid, i, round(env.now, 9)))
                if i < 2:
                    env.schedule_at(env.now + delay, lambda: step(wid, delay, i + 1))

            for wid, delay in spec:
                env.schedule_at(delay, lambda wid=wid, delay=delay: step(wid, delay, 0))
            env.run()
            return log

        assert trace() == trace()

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=10.0), st.booleans()),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_cancelled_entry_is_a_counted_no_op(self, spec):
        env = Simulator()
        fired = []
        for i, (t, cancel) in enumerate(spec):
            entry = env.schedule_at(t, lambda i=i: fired.append(i))
            if cancel:
                entry.cancel()
        env.run()
        assert fired == [
            i for _, i in sorted((t, i) for i, (t, cancel) in enumerate(spec) if not cancel)
        ]
        assert env.events_processed == len(spec)
