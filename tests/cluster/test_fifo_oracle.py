"""The callback FIFO against the generator server it replaced.

:class:`GeneratorFileServer` is the service loop :class:`FileServer`
used to run: one generator process pulling requests off a ``Store``,
with a zero-delay hand-off event between a request reaching the head
and its service starting. It runs on the test-only generator runtime
of ``tests/sim/generators.py``. The property drives one server of each kind
through the same random sequence of arrivals, flush charges, cold
windows, straggler factors and crashes, and holds every simulated value
to bit-for-bit equality.

A second property holds the inline booking of unlistened slices to the
calendar path: the same random sequences, now with window reports,
``run(until)`` cut points, listened requests, submits at a clock past
the request's arrival (an orphan re-issued after a crash) and reads of
``queue_length`` and ``busy_time`` between entries, are replayed twice
through a :class:`RequestDriver` into one server — once with a no-op
``probe``, which keeps every slice on the calendar, and once without.
The driver hands the server rows; a listened arrival enters as its
request object, the others as plain rows.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cluster import CacheConfig, CacheModel, FileServer, MetadataRequest
from repro.engine.client_path import RequestDriver
from repro.sim import Simulator

from ..sim.generators import Interrupt, Process, Store, Timeout


class GeneratorFileServer(FileServer):
    """The generator-and-Store FIFO, kept as the oracle."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._store = Store(self.env)
        self._loop = Process(self.env, self._service_loop())

    def submit(self, request: MetadataRequest) -> None:
        if self.failed:
            raise RuntimeError(f"server {self.server_id!r} is failed")
        request.server = self.server_id
        self._store.put(request)

    def _service_loop(self):
        try:
            yield from self._serve_forever()
        except Interrupt:
            return

    def _serve_forever(self):
        env = self.env
        while True:
            request = yield self._store.get()
            while self._flush_backlog:
                flush = self._flush_backlog.pop(0)
                start = env.now
                yield Timeout(env, flush / self.power)
                self.busy_time += env.now - start
            request.service_start = env.now
            work = request.work
            if self.cache is not None:
                work *= self.cache.work_multiplier(self.server_id, request.fileset, env.now)
            start = env.now
            yield Timeout(env, work / self.power)
            self.busy_time += env.now - start
            request.completion = env.now
            latency = request.latency
            self.completed.observe(latency)
            self._window_latency_sum += latency
            self._window_count += 1

    def fail(self):
        self.failed = True
        self.incarnation += 1
        self._loop.interrupt("failed")
        orphans = self._store.drain()
        self._store = Store(self.env)
        return orphans

    def recover(self) -> None:
        super().recover()
        self._loop = Process(self.env, self._service_loop())


#: Steps that land on exactly the same instant, on instants a completion
#: can also hit (works and powers are dyadic), or anywhere.
GAPS = st.one_of(st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 3.0))
WORKS = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.01, 4.0))
STEPS = st.lists(
    st.tuples(
        GAPS,
        st.sampled_from(["arrive", "arrive", "arrive", "flush", "power", "shed", "crash"]),
        WORKS,
        st.sampled_from(["/a", "/b", "/c"]),
    ),
    min_size=1,
    max_size=60,
)
CACHE = CacheConfig(flush_work_scale=1.0, cold_factor=3.0, warmup_time=2.0)


def queue_length(server: FileServer) -> int:
    """Requests waiting at the clock (the one in service excluded)."""
    if isinstance(server, GeneratorFileServer):
        return len(server._store)
    server.advance(server.env.now)
    return len(server._queue)


def _state(server: FileServer) -> tuple:
    return (queue_length(server), server.busy_time, server.failed, server.incarnation)


def _books(server: FileServer) -> tuple:
    tally = server.completed
    return (
        server.completed_requests,
        (tally.count, tally.mean, tally.minimum, tally.maximum),
        (server._window_latency_sum, server._window_count),
    )


class TestCallbackFifoMatchesGeneratorLoop:
    @settings(max_examples=300, deadline=None)
    @given(steps=STEPS, power=st.sampled_from([1.0, 2.0, 3.0]))
    def test_every_served_value_is_bit_equal(self, steps, power):
        sides = []
        for cls in (FileServer, GeneratorFileServer):
            env = Simulator()
            cache = CacheModel(CACHE)
            sides.append((env, cache, cls(env, "s", power, cache=cache), []))
        orphans = ([], [])
        now = 0.0
        for gap, action, work, fileset in steps:
            now += gap
            for side, (env, cache, server, requests) in enumerate(sides):
                env.run(until=now)
                if action == "arrive" and not server.failed:
                    request = MetadataRequest(fileset=fileset, arrival=now, work=work)
                    requests.append(request)
                    server.submit(request)
                elif action == "flush":
                    server.charge_flush(work)
                elif action == "power":
                    server.set_power_factor(work / 4.0)
                elif action == "shed":
                    cache.on_shed(fileset, "elsewhere", "s", now, work)
                elif action == "crash" and server.failed:
                    server.recover()
                elif action == "crash":
                    orphans[side].append([requests.index(r) for r in server.fail()])
            assert _state(sides[0][2]) == _state(sides[1][2])
        for env, *_ in sides:
            env.run()
        (_, _, fast, served), (_, _, slow, oracle) = sides
        assert [(r.service_start, r.completion) for r in served] == [
            (r.service_start, r.completion) for r in oracle
        ]
        assert orphans[0] == orphans[1]
        assert _state(fast) == _state(slow)
        assert _books(fast) == _books(slow)


TWIN_STEPS = st.lists(
    st.tuples(
        GAPS,
        st.sampled_from(
            [
                "arrive", "arrive", "arrive", "flush", "power", "shed", "crash",
                "report", "late", "read",
            ]
        ),
        WORKS,
        st.sampled_from(["/a", "/b", "/c"]),
        st.sampled_from([False, False, True]),  # the request is listened to
        st.sampled_from([False, False, True]),  # cut the run here
    ),
    min_size=1,
    max_size=60,
)


class _DrivenView:
    """The server as the driver sees it: a row whose arrival is listened
    to enters with its request object, any other row as itself."""

    def __init__(self, server: FileServer, objects: dict) -> None:
        self.server = server
        self.objects = objects

    @property
    def failed(self) -> bool:
        return self.server.failed

    def submit_row(self, row: tuple) -> bool:
        return self.server.submit_row(row, self.objects.get(id(row)))


def _replay(steps, power: float, probe: bool) -> tuple:
    """One server fed by a driver; the other actions are calendar entries
    placed up front, like a fault timeline. A late submit comes from
    such an entry, with an arrival ``work`` seconds before it."""
    env = Simulator()
    cache = CacheModel(CACHE)
    server = FileServer(env, "s", power, cache=cache)
    if probe:
        server.probe = lambda request: None
    rows, objects, late, hooks, orphans, reports, reads = [], {}, [], [], [], [], []
    requests = []  # the listened arrivals' request objects

    def tag(request):
        for kind, pool in (("driven", requests), ("late", late)):
            for i, r in enumerate(pool):
                if r is request:
                    return kind, i
        # An unlistened row comes back from a crash as a new object.
        return "row", rows.index((request.fileset, request.arrival, request.work))

    def hook(request):
        hooks.append((tag(request), env.now, request.completion))

    def act(action, work, fileset, listened, now):
        if action == "flush":
            server.charge_flush(work)
        elif action == "power":
            server.set_power_factor(work / 4.0)
        elif action == "shed":
            cache.on_shed(fileset, "elsewhere", "s", now, work)
        elif action == "report":
            report = server.interval_report()
            reports.append((report.mean_latency, report.request_count, report.window))
        elif action == "read":
            reads.append((now, queue_length(server), server.busy_time))
        elif action == "late":
            if not server.failed:
                request = MetadataRequest(fileset, max(now - work, 0.0), work)
                if listened:
                    request.on_complete = hook
                late.append(request)
                server.submit(request)
        elif server.failed:
            server.recover()
        else:
            orphans.append([tag(r) for r in server.fail()])

    now = 0.0
    cuts = []
    for gap, action, work, fileset, listened, cut in steps:
        now += gap
        if cut:
            cuts.append(now)
        if action == "arrive":
            rows.append((fileset, now, work))
            if listened:
                request = MetadataRequest(fileset, now, work)
                request.on_complete = hook
                requests.append(request)
                objects[id(rows[-1])] = request
        else:
            env.schedule_at(now, lambda a=(action, work, fileset, listened, now): act(*a))
    driver = RequestDriver(
        env, rows, locate=lambda fileset: 0, servers={0: _DrivenView(server, objects)}
    )
    for cut in cuts:
        env.run(until=cut)
        assert env.now == cut
        reads.append((cut, queue_length(server), server.busy_time))
    env.run()
    return (
        [(r.service_start, r.completion) for r in requests + late],
        hooks,
        orphans,
        reports,
        reads,
        _state(server),
        _books(server),
        (driver.submitted, driver._dropped),
        env.events_processed,
        # Rows are not stamped: every latency, in completion order.
        server.completed.samples_view().tolist(),
    )


class TestInlineBookingMatchesCalendar:
    @settings(max_examples=300, deadline=None)
    @given(steps=TWIN_STEPS, power=st.sampled_from([1.0, 2.0, 3.0]))
    def test_every_value_and_event_count_is_bit_equal(self, steps, power):
        calendar = _replay(steps, power, probe=True)
        inline = _replay(steps, power, probe=False)
        assert inline == calendar
        # Every hook ran at its request's completion instant.
        assert all(now == completion for _, now, completion in inline[1])
