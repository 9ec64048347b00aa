"""Events of the test-only generator runtime, and a failing callback.

The runtime (``tests/sim/generators.py``) hosts the generator oracles;
its events must fire from a zero-delay entry, once, with their value.
"""

from __future__ import annotations

import pytest

from .generators import AnyOf, Event, Timeout


class TestEventLifeCycle:
    def test_initial_state(self, env):
        ev = Event(env)
        assert not ev.triggered and not ev.processed

    def test_succeed_delivers_value(self, env):
        ev = Event(env)
        got = []
        ev.callbacks.append(lambda e: got.append(e.value))
        ev.succeed(41)
        assert got == [] and ev.triggered
        env.run()
        assert got == [41]
        assert ev.processed

    def test_succeed_twice_rejected(self, env):
        ev = Event(env)
        ev.succeed(1)
        with pytest.raises(RuntimeError):
            ev.succeed(2)

    def test_unhandled_failure_surfaces(self, env):
        """A callback's exception propagates out of ``run``, clock at its entry."""

        def boom():
            raise RuntimeError("boom")

        env.schedule_at(2.0, boom)
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
        assert env.now == 2.0


class TestComposites:
    def test_any_of_fires_on_first(self, env):
        combo = AnyOf(env, [Timeout(env, 1.0, "a"), Timeout(env, 3.0, "b")])
        fired_at = []
        combo.callbacks.append(lambda e: fired_at.append((env.now, e.value)))
        env.run()
        assert fired_at == [(1.0, "a")]
