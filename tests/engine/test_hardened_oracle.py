"""The callback hardened client against the generator client it replaced.

:class:`GeneratorHardenedClient` is the drive loop
:class:`~repro.engine.HardenedClient` used to run: one generator process
per logical request, racing each attempt's completion event against a
timeout through ``AnyOf`` (a completion disarms the pending timeout,
as it cancels the timer in the program). It runs on the test-only
generator runtime of ``tests/sim/generators.py``. The property drives
one client of each kind through the same random sequence of arrivals,
slow servers, crashes and recoveries (incarnation bumps), suspected
sets and placement moves, and holds every ledger counter, completion
time and latency to bit-for-bit equality.
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import Optional

from hypothesis import example, given, settings, strategies as st

from repro.cluster import FileServer, MetadataRequest
from repro.engine import HardenedClient
from repro.engine.probes import RequestFailed
from repro.retry import Attempts, RetryPolicy
from repro.sim import Simulator

from ..sim.generators import AnyOf, Event, Process, Timeout


class GeneratorHardenedClient(HardenedClient):
    """The generator drive loop, kept as the oracle."""

    def submit_row(self, row: tuple, request: Optional[MetadataRequest] = None) -> None:
        if request is None:
            request = MetadataRequest(*row)
        Process(self.env, self._drive(request, Attempts(self, self.policy, self.rng)))

    def _drive(self, request: MetadataRequest, attempts: Attempts):
        env = self.env
        suspected = self.suspected
        while attempts.next():
            server = self.route(request)
            if server is None or server.failed or (
                suspected is not None and server.server_id in suspected()
            ):
                yield Timeout(env, attempts.back_off())
                attempts.resume()
                continue
            attempts.aim(server.server_id)
            attempt = MetadataRequest(
                fileset=request.fileset, arrival=request.arrival, work=request.work
            )
            done = Event(env)
            timer = []  # the attempt's pending timeout

            def served(req, done=done, timer=timer):
                # Completing disarms the pending timeout, as a completion
                # cancels the timer entry in the program.
                timer[-1].callbacks.clear()
                done.succeed(req)

            attempt.on_complete = served
            incarnation = server.incarnation
            server.submit(attempt)
            attempts.send()
            while attempt.completion is None:
                timer.append(Timeout(env, self.policy.request_timeout))
                yield AnyOf(env, [done, timer[-1]])
                if attempt.completion is not None:
                    # The timeout fired first at the completion's instant:
                    # learn of the completion through its event all the
                    # same, so settles keep the servers' completion order.
                    if not done.processed:
                        yield AnyOf(env, [done])
                    break
                if (
                    server.failed
                    or server.incarnation != incarnation
                    or (suspected is not None and server.server_id in suspected())
                ):
                    attempts.timed_out()
                    break
            attempts.returned()
            if attempt.completion is not None:
                request.server = attempt.server
                request.service_start = attempt.service_start
                request.completion = attempt.completion
                attempts.settle(attempt.latency)
                if request.on_complete is not None:
                    request.on_complete(request)
                return
            yield Timeout(env, attempts.back_off())
            attempts.resume()
        attempts.exhaust()
        if self.probe is not None:
            self.probe.publish(RequestFailed(time=env.now, fileset=request.fileset))


class _Failures:
    """Probe stand-in: records when each request gave up."""

    def __init__(self) -> None:
        self.events = []

    def publish(self, event) -> None:
        self.events.append((event.time, event.fileset))


#: Gaps that land on exactly the same instant, on instants a timeout,
#: backoff or completion can also hit (everything is dyadic), or anywhere.
GAPS = st.one_of(st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 2.0]), st.floats(0.0, 3.0))
WORKS = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0]), st.floats(0.01, 4.0))
STEPS = st.lists(
    st.tuples(
        GAPS,
        st.sampled_from(
            ["arrive", "arrive", "arrive", "arrive", "slow", "crash", "recover",
             "bounce", "suspect", "clear", "move", "unroute"]
        ),
        st.sampled_from([0, 1, 2]),
        WORKS,
        st.sampled_from(["/a", "/b"]),
    ),
    min_size=1,
    max_size=60,
)
POLICIES = st.builds(
    RetryPolicy,
    request_timeout=st.sampled_from([0.5, 1.0, 2.0]),
    max_attempts=st.integers(1, 5),
    backoff_base=st.just(0.25),
    backoff_cap=st.sampled_from([0.25, 1.0]),
    jitter=st.sampled_from([0.0, 0.5]),
)


#: Long enough for every request to finish or give up; a client that
#: waits forever on a lost attempt is still in flight here.
HORIZON = 1e5


class _Side:
    """One client over three servers, driven by a chain of step entries."""

    def __init__(self, cls, policy: RetryPolicy, seed: int) -> None:
        self.env = env = Simulator()
        self.servers = {
            sid: FileServer(env, sid, power) for sid, power in ((0, 1.0), (1, 2.0), (2, 4.0))
        }
        self.owner = {"/a": 0, "/b": 1}
        self.suspects = set()
        self.requests = []
        self.client = cls(
            env,
            self.route,
            policy=policy,
            rng=random.Random(seed),
            suspected=lambda: self.suspects,
            probe=_Failures(),
        )

    def route(self, request: MetadataRequest):
        sid = self.owner[request.fileset]
        return None if sid is None else self.servers[sid]

    def play(self, steps) -> None:
        """Apply each step from a calendar entry scheduled at the
        previous step's instant (as a fault schedule or a heartbeat
        would be), then run to the horizon."""
        env = self.env
        times = list(accumulate(gap for gap, *_ in steps))

        def step(i: int) -> None:
            self.apply(*steps[i][1:])
            if i + 1 < len(steps):
                env.schedule_at(times[i + 1], lambda: step(i + 1))

        env.schedule_at(times[0], lambda: step(0))
        env.run(until=HORIZON)

    def apply(self, action: str, sid: int, work: float, fileset: str) -> None:
        server = self.servers[sid]
        if action == "arrive":
            request = MetadataRequest(fileset=fileset, arrival=self.env.now, work=work)
            self.requests.append(request)
            self.client.submit_row((fileset, request.arrival, work), request)
        elif action == "slow" and not server.failed:
            server.set_power_factor(0.25 if server.power == server.base_power else 1.0)
        elif action in ("crash", "bounce") and not server.failed:
            server.fail()
            if action == "bounce":  # back at once, one incarnation later
                server.recover()
        elif action == "recover" and server.failed:
            server.recover()
        elif action == "suspect":
            self.suspects.add(sid)
        elif action == "clear":
            self.suspects.discard(sid)
        elif action == "move":
            self.owner[fileset] = sid
        elif action == "unroute":
            self.owner[fileset] = None


def _ledger(client: HardenedClient) -> tuple:
    return (
        client.injected, client.completed, client.failed, client.in_flight,
        client.retries, client.redirects, client.timeouts,
        client.dispatching, client.awaiting_service, client.backing_off,
    )


class TestCallbackClientMatchesGeneratorClient:
    @settings(max_examples=300, deadline=None)
    @given(steps=STEPS, policy=POLICIES, seed=st.integers(0, 3))
    # A crash scheduled after the attempt's timer lands on the timer's
    # own instant: the client must look at the target after it.
    @example(
        steps=[(0.0, "arrive", 0, 2.0, "/a"), (0.5, "clear", 0, 1.0, "/a"),
               (0.5, "crash", 0, 1.0, "/a")],
        policy=RetryPolicy(request_timeout=1.0, max_attempts=2, jitter=0.0),
        seed=0,
    )
    # The target crashes and is back before the timer: the attempt is
    # gone with the old incarnation.
    @example(
        steps=[(0.0, "arrive", 0, 2.0, "/a"), (0.5, "bounce", 0, 1.0, "/a")],
        policy=RetryPolicy(request_timeout=1.0, max_attempts=2, jitter=0.0),
        seed=0,
    )
    # The abandoned attempt on a suspected server finishes while its
    # retry is in flight elsewhere: only the retry may settle the request.
    @example(
        steps=[(0.0, "arrive", 0, 2.0, "/a"), (0.25, "suspect", 0, 1.0, "/a"),
               (0.0, "move", 1, 1.0, "/a")],
        policy=RetryPolicy(request_timeout=1.0, max_attempts=3, jitter=0.0),
        seed=0,
    )
    # Two completions at one instant on different servers, each racing
    # its attempt's timer there: the samples follow the completions.
    @example(
        steps=[(0.0, "arrive", 0, 2.0, "/a"), (1.0, "arrive", 0, 2.0, "/b")],
        policy=RetryPolicy(
            request_timeout=0.5, max_attempts=1, backoff_base=0.25,
            backoff_cap=0.25, jitter=0.0,
        ),
        seed=0,
    )
    # The queued request's timer fires at its completion's instant ahead
    # of the completion entry, and another server completes in between:
    # the other request settles first, as the program's client does.
    @example(
        steps=[(0.0, "arrive", 0, 1.75, "/a"), (0.0, "arrive", 0, 0.25, "/a"),
               (1.625, "arrive", 0, 0.75, "/b")],
        policy=RetryPolicy(request_timeout=0.5, max_attempts=1, jitter=0.0),
        seed=0,
    )
    def test_every_ledger_value_is_bit_equal(self, steps, policy, seed):
        fast = _Side(HardenedClient, policy, seed)
        slow = _Side(GeneratorHardenedClient, policy, seed)
        for side in (fast, slow):
            side.play(steps)
        assert [(r.server, r.service_start, r.completion, r.latency) for r in fast.requests] == [
            (r.server, r.service_start, r.completion, r.latency) for r in slow.requests
        ]
        assert _ledger(fast.client) == _ledger(slow.client)
        assert fast.client.in_flight == slow.client.in_flight == 0
        assert fast.client.latency.samples_view().tolist() == slow.client.latency.samples_view().tolist()
        assert fast.client.probe.events == slow.client.probe.events
