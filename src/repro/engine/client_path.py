"""The client-path layer: one request driver, with or without retries.

:class:`RequestDriver` replays a request schedule into the cluster
through one of two paths:

* **basic path** — route once at arrival, submit or drop (the paper's
  figure runs: placement changes take effect for new arrivals, queued
  requests finish where they are);
* **hardened path** — :class:`HardenedClient` drives each logical
  request through the retry, redirect and ledger rules of
  :mod:`repro.retry` (the same rules the live service client follows):
  per-attempt completion timeout, capped exponential backoff with
  seeded jitter, and re-locate-and-redirect when the target is down or
  suspected. The ledger (``injected = completed + failed + in_flight``)
  is one of the chaos invariants.

The layer objects (:class:`BasicClientPath`, :class:`HardenedClientPath`)
are stateless factories the :class:`~repro.engine.engine.ClusterEngine`
calls to assemble its driver.
"""

from __future__ import annotations

import random
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Set, TYPE_CHECKING

from ..retry import Attempts, RequestLedger, RetryPolicy
from ..sim import Call, Simulator
from .probes import RequestDropped, RequestFailed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.request import MetadataRequest
    from ..cluster.server import FileServer
    from .engine import ClusterEngine

__all__ = [
    "HardenedClient",
    "RequestDriver",
    "ClientPath",
    "BasicClientPath",
    "HardenedClientPath",
]


class HardenedClient(RequestLedger):
    """Retrying, redirecting request submission path.

    Parameters
    ----------
    env:
        The simulator.
    route:
        ``route(request) -> Optional[FileServer]`` — resolves the file
        set's *current* server; re-consulted before every attempt, so a
        reconfiguration redirects the next retry automatically.
    policy:
        Retry/backoff/timeout configuration.
    rng:
        Seeded :class:`random.Random` for backoff jitter (``None``
        disables jitter).
    suspected:
        Optional ``() -> set`` of server ids currently suspected by the
        failure detector; the client refuses to wait on (and redirects
        away from) suspected targets.
    probe:
        Optional :class:`~repro.engine.probes.ProbeBus` receiving
        :class:`~repro.engine.probes.RequestFailed` events.
    """

    def __init__(
        self,
        env: Simulator,
        route: Callable[["MetadataRequest"], Optional["FileServer"]],
        policy: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
        suspected: Optional[Callable[[], Set[object]]] = None,
        probe=None,
    ) -> None:
        super().__init__()
        self.env = env
        self.route = route
        self.policy = policy or RetryPolicy()
        self.rng = rng
        self.suspected = suspected
        self.probe = probe

    # ------------------------------------------------------------------ #
    def submit(self, request: "MetadataRequest") -> None:
        """Drive one logical request to completion (or exhaustion).

        The first attempt is located from a start hop, after every entry
        already due at this instant.
        """
        self.env.schedule_at(self.env.now, _Drive(self, request).dispatch)

    def _suspects(self, server: "FileServer") -> bool:
        return self.suspected is not None and server.server_id in self.suspected()


class _Drive:
    """One logical request's attempts, as calendar callbacks.

    :meth:`dispatch` re-locates before every attempt (so a
    reconfiguration redirects the next retry) and submits a pristine
    copy of the request, or backs off when there is no live owner. The
    attempt then races one timer entry. If the attempt completes first,
    its completion hook cancels the timer and settles the request. If
    the timer expires first, the target is looked at from a hop — after
    every entry already due at that instant, a crash or a heartbeat
    round included — and the client either keeps waiting on a
    healthy-but-slow server or abandons the attempt, backs off and
    dispatches again.
    """

    __slots__ = ("client", "request", "attempts", "attempt", "server", "incarnation", "timer")

    def __init__(self, client: HardenedClient, request: "MetadataRequest") -> None:
        self.client = client
        self.request = request
        self.attempts = Attempts(client, client.policy, client.rng)
        #: The attempt in flight (``None`` between attempts).
        self.attempt: Optional["MetadataRequest"] = None
        self.server: Optional["FileServer"] = None
        self.incarnation = 0
        self.timer: Optional[Call] = None

    def dispatch(self) -> None:
        from ..cluster.request import MetadataRequest

        client = self.client
        attempts = self.attempts
        if not attempts.next():
            attempts.exhaust()
            if client.probe is not None:
                client.probe.publish(
                    RequestFailed(time=client.env.now, fileset=self.request.fileset)
                )
            return
        request = self.request
        server = client.route(request)
        if server is None or server.failed or client._suspects(server):
            # No live owner right now (stale mapping or mid-failover):
            # back off and re-locate.
            self._back_off()
            return
        attempts.aim(server.server_id)
        # The original request's arrival is kept, so measured latency
        # includes every retry delay.
        attempt = MetadataRequest(
            fileset=request.fileset, arrival=request.arrival, work=request.work
        )
        attempt.on_complete = self._served
        self.attempt = attempt
        self.server = server
        self.incarnation = server.incarnation
        server.submit(attempt)
        attempts.send()
        self._arm()

    def _arm(self) -> None:
        env = self.client.env
        self.timer = env.schedule_at(
            env.now + self.client.policy.request_timeout, self._expired
        )

    def _served(self, attempt: "MetadataRequest") -> None:
        if attempt is not self.attempt:  # abandoned, finishing late
            return
        self.timer.cancel()
        self.attempt = None
        attempts = self.attempts
        attempts.returned()
        request = self.request
        request.server = attempt.server
        request.service_start = attempt.service_start
        request.completion = attempt.completion
        attempts.settle(attempt.latency)
        if request.on_complete is not None:
            request.on_complete(request)

    def _expired(self) -> None:
        env = self.client.env
        env.schedule_at(env.now, self._look)

    def _look(self) -> None:
        if self.attempt is None:  # completed since the timer fired
            return
        server = self.server
        if (
            server.failed
            or server.incarnation != self.incarnation
            or self.client._suspects(server)
        ):
            # The attempt died with its server (a crash discards the
            # queue — even if it has recovered since, this attempt is
            # gone); abandon and redirect.
            self.attempt = None
            self.attempts.timed_out()
            self.attempts.returned()
            self._back_off()
            return
        # Healthy but slow: keep waiting — FIFO guarantees the attempt
        # is still making progress toward the head.
        self._arm()

    def _back_off(self) -> None:
        env = self.client.env
        env.schedule_at(env.now + self.attempts.back_off(), self._resume)

    def _resume(self) -> None:
        self.attempts.resume()
        self.dispatch()


class RequestDriver:
    """Replays a time-ordered request schedule into the cluster.

    The one driver both client paths share. Exactly one of ``locate`` /
    ``client`` must be given:

    ``locate`` and ``servers``
        Basic path — ``servers.get(locate(request.fileset))`` is the file
        set's current server *at arrival time*; a missing or failed
        server drops the request (counted, optionally published).
    ``client``
        Hardened path — every request is handed to a
        :class:`HardenedClient` for the retry/redirect treatment
        instead of being dropped when routing fails.

    Arrivals replay as a chain of calendar callbacks, one simulated
    event per distinct arrival instant: a callback submits the requests
    due, then skips the clock to the next instant
    (:meth:`~repro.sim.Simulator.skip_to`) until an entry is due by
    then, and schedules an entry there instead. The schedule is
    iterated once, as it replays, and never copied.
    """

    def __init__(
        self,
        env: Simulator,
        schedule: Iterable["MetadataRequest"],
        locate: Optional[Callable[[str], object]] = None,
        servers: Mapping[object, "FileServer"] = MappingProxyType({}),
        client: Optional[HardenedClient] = None,
        probe=None,
    ) -> None:
        if (locate is None) == (client is None):
            raise ValueError("exactly one of locate/client must be given")
        self.env = env
        self.locate = locate
        self.servers = servers
        self.client = client
        self.probe = probe
        self._submitted = 0
        self._dropped = 0
        # The request the pending calendar entry submits, and the rest.
        self._rest = iter(schedule)
        self._due = next(self._rest, None)
        if self._due is not None:
            env.schedule_at(env.now + max(self._due.arrival - env.now, 0.0), self._arrive)

    def _arrive(self) -> None:
        """Submit the request this entry was scheduled for and every
        following one the clock can skip to; schedule the next.

        The schedule's order is checked here, pair by pair as requests
        come due, rather than by a pass over the whole schedule up
        front: a request arriving before its predecessor raises.
        """
        env = self.env
        client = self.client
        locate = self.locate
        servers = self.servers
        rest = self._rest
        request = self._due
        now = env.now
        last = request.arrival
        while True:
            if client is not None:
                client.submit(request)
            else:
                server = servers.get(locate(request.fileset))
                if server is None or server.failed:
                    self._drop(request)
                else:
                    server.submit(request)
                    self._submitted += 1
            request = next(rest, None)
            if request is None:
                return
            arrival = request.arrival
            delay = arrival - now
            if delay > 0:
                now += delay
                if not env.skip_to(now):
                    self._due = request
                    env.schedule_at(now, self._arrive)
                    return
            elif arrival < last:
                # (A request later than the clock is no earlier than
                # its predecessor, which was due by then.)
                raise ValueError("request schedule must be sorted by arrival time")
            last = arrival

    def _drop(self, request: "MetadataRequest") -> None:
        self._dropped += 1
        if self.probe is not None and self.probe.wants(RequestDropped):
            self.probe.publish(RequestDropped(time=self.env.now, fileset=request.fileset))

    # ------------------------------------------------------------------ #
    @property
    def submitted(self) -> int:
        """Requests handed to the cluster (or the client) so far."""
        return self.client.injected if self.client is not None else self._submitted

    @property
    def dropped(self) -> int:
        """Basic path: silently dropped; hardened path: counted failures."""
        return self.client.failed if self.client is not None else self._dropped


# ---------------------------------------------------------------------- #
# the layer objects
# ---------------------------------------------------------------------- #
class ClientPath:
    """Assembles the request driver for an engine (stateless factory)."""

    def build(self, engine: "ClusterEngine") -> RequestDriver:
        """Return the driver that replays ``engine.workload``."""
        raise NotImplementedError


class BasicClientPath(ClientPath):
    """Route-once, submit-or-drop — the paper's figure-run semantics."""

    def build(self, engine: "ClusterEngine") -> RequestDriver:
        return RequestDriver(
            engine.env,
            engine.workload.replay(),
            locate=engine.policy.locate,
            servers=engine.servers,
            probe=engine.bus,
        )


class HardenedClientPath(ClientPath):
    """Timeout/backoff/redirect submission through a :class:`HardenedClient`.

    Parameters
    ----------
    retry:
        The :class:`RetryPolicy` (default: stock policy).
    rng:
        Seeded rng for backoff jitter.
    trust_detector:
        When ``True`` (default) the client consults the engine's
        failure detector and redirects away from suspected servers.
    """

    def __init__(
        self,
        retry: Optional[RetryPolicy] = None,
        rng: Optional[random.Random] = None,
        trust_detector: bool = True,
    ) -> None:
        self.retry = retry
        self.rng = rng
        self.trust_detector = trust_detector

    def build(self, engine: "ClusterEngine") -> RequestDriver:
        suspected = None
        if self.trust_detector:
            def suspected() -> Set[object]:
                monitor = engine.monitor
                return monitor.suspected if monitor is not None else set()
        client = HardenedClient(
            engine.env,
            engine._route,
            policy=self.retry,
            rng=self.rng,
            suspected=suspected,
            probe=engine.bus,
        )
        return RequestDriver(
            engine.env, engine.workload.replay(), client=client, probe=engine.bus
        )
