"""The Store of the test-only generator runtime (``tests/sim/generators.py``).

The generator file-server oracle queues its requests in one; ``get``
hands items out in FIFO order, to getters in FIFO order.
"""

from __future__ import annotations

from .generators import Process, Store


class TestStore:
    def test_put_then_get(self, env):
        s = Store(env)
        s.put("x")
        ev = s.get()
        env.run()
        assert ev.value == "x"

    def test_get_blocks_until_put(self, env):
        s = Store(env)
        got = []

        def consumer(env):
            item = yield s.get()
            got.append((item, env.now))

        Process(env, consumer(env))
        env.schedule_at(4.0, lambda: s.put("late"))
        env.run()
        assert got == [("late", 4.0)]

    def test_fifo_order(self, env):
        s = Store(env)
        got = []

        def consumer(env):
            for _ in range(3):
                item = yield s.get()
                got.append(item)

        Process(env, consumer(env))
        for item in ("a", "b", "c"):
            s.put(item)
        env.run()
        assert got == ["a", "b", "c"]

    def test_multiple_getters_fifo(self, env):
        s = Store(env)
        got = []

        def consumer(env, cid):
            item = yield s.get()
            got.append((cid, item))

        Process(env, consumer(env, 0))
        Process(env, consumer(env, 1))
        env.schedule_at(1.0, lambda: s.put("first"))
        env.schedule_at(2.0, lambda: s.put("second"))
        env.run()
        assert got == [(0, "first"), (1, "second")]

    def test_drain(self, env):
        s = Store(env)
        for i in range(4):
            s.put(i)
        assert s.drain() == [0, 1, 2, 3]
        assert len(s) == 0
