"""Processes of the test-only generator runtime: yielding, returning,
interrupting.

The runtime (``tests/sim/generators.py``) hosts the generator oracles,
so its processes must resume in the order a process-style kernel would.
"""

from __future__ import annotations

import pytest

from .generators import Interrupt, Process, Timeout


class TestBasics:
    def test_sequential_timeouts(self, env):
        log = []

        def proc(env):
            yield Timeout(env, 1.0)
            log.append(env.now)
            yield Timeout(env, 2.0)
            log.append(env.now)

        Process(env, proc(env))
        env.run()
        assert log == [1.0, 3.0]

    def test_timeout_value_sent_back(self, env):
        got = []

        def proc(env):
            v = yield Timeout(env, 1.0, value="payload")
            got.append(v)

        Process(env, proc(env))
        env.run()
        assert got == ["payload"]

    def test_process_is_event_with_return_value(self, env):
        def child(env):
            yield Timeout(env, 2.0)
            return "result"

        def parent(env):
            value = yield Process(env, child(env))
            assert value == "result"
            assert env.now == 2.0
            return "done"

        p = Process(env, parent(env))
        env.run()
        assert p.processed and p.value == "done"

    def test_waiting_on_finished_process(self, env):
        def child(env):
            yield Timeout(env, 1.0)
            return 99

        def parent(env, child_proc):
            yield Timeout(env, 5.0)  # child finished long ago
            v = yield child_proc
            assert v == 99
            assert env.now == 5.0

        c = Process(env, child(env))
        Process(env, parent(env, c))
        env.run()

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            Process(env, lambda: None)

    def test_is_alive(self, env):
        def proc(env):
            yield Timeout(env, 1.0)

        p = Process(env, proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        causes = []

        def proc(env):
            try:
                yield Timeout(env, 100.0)
            except Interrupt as i:
                causes.append((env.now, i.cause))

        p = Process(env, proc(env))

        def killer(env):
            yield Timeout(env, 2.0)
            p.interrupt("reconfigure")

        Process(env, killer(env))
        env.run()
        assert causes == [(2.0, "reconfigure")]

    def test_interrupted_process_can_continue(self, env):
        log = []

        def proc(env):
            try:
                yield Timeout(env, 100.0)
            except Interrupt:
                pass
            yield Timeout(env, 1.0)
            log.append(env.now)

        p = Process(env, proc(env))
        env.schedule_at(5.0, lambda: p.interrupt())
        env.run()
        assert log == [6.0]

    def test_interrupt_finished_process_rejected(self, env):
        def proc(env):
            yield Timeout(env, 1.0)

        p = Process(env, proc(env))
        env.run()
        with pytest.raises(RuntimeError):
            p.interrupt()

    def test_interrupt_detaches_from_target(self, env):
        """After an interrupt, the original target firing must not resume
        the process a second time."""
        resumed = []

        def proc(env):
            try:
                yield Timeout(env, 10.0)
                resumed.append("timeout")
            except Interrupt:
                resumed.append("interrupt")
                yield Timeout(env, 20.0)
                resumed.append("after")

        p = Process(env, proc(env))
        env.schedule_at(1.0, lambda: p.interrupt())
        env.run()
        assert resumed == ["interrupt", "after"]
