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
from typing import Callable, Optional, Sequence, Set, TYPE_CHECKING

from ..retry import Attempts, RequestLedger, RetryPolicy
from ..sim import Simulator
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
    def submit(self, request: "MetadataRequest"):
        """Drive one logical request to completion (or exhaustion)."""
        attempts = Attempts(self, self.policy, self.rng)
        return self.env.process(self._drive(request, attempts))

    def _drive(self, request: "MetadataRequest", attempts: Attempts):
        """Re-locate before every attempt (so a reconfiguration redirects
        the next retry), abandon only dead or suspected targets, back
        off between attempts."""
        from ..cluster.request import MetadataRequest

        env = self.env
        suspected = self.suspected
        while attempts.next():
            server = self.route(request)
            if server is None or server.failed or (
                suspected is not None and server.server_id in suspected()
            ):
                # No live owner right now (stale mapping or mid-failover):
                # back off and re-locate.
                yield env.timeout(attempts.back_off())
                attempts.resume()
                continue
            attempts.aim(server.server_id)
            # A pristine attempt copy: the original request's arrival is
            # preserved so measured latency includes every retry delay.
            attempt = MetadataRequest(
                fileset=request.fileset, arrival=request.arrival, work=request.work
            )
            done = env.event()
            attempt.on_complete = lambda req, ev=done: ev.succeed(req)
            incarnation = server.incarnation
            server.submit(attempt)
            attempts.send()
            while not attempt.done:
                timeout = env.timeout(self.policy.request_timeout)
                yield env.any_of([done, timeout])
                if attempt.done:
                    break
                if (
                    server.failed
                    or server.incarnation != incarnation
                    or (suspected is not None and server.server_id in suspected())
                ):
                    # The attempt died with its server (a crash discards
                    # the queue — even if it has recovered since, this
                    # attempt is gone); abandon and redirect.
                    attempts.timed_out()
                    break
                # Healthy but slow: keep waiting — FIFO guarantees the
                # attempt is still making progress toward the head.
            attempts.returned()
            if attempt.done:
                request.server = attempt.server
                request.service_start = attempt.service_start
                request.completion = attempt.completion
                attempts.settle(attempt.latency)
                if request.on_complete is not None:
                    request.on_complete(request)
                return
            yield env.timeout(attempts.back_off())
            attempts.resume()
        attempts.exhaust()
        if self.probe is not None:
            self.probe.publish(RequestFailed(time=env.now, fileset=request.fileset))


class RequestDriver:
    """Replays a time-ordered request schedule into the cluster.

    The one driver both client paths share. Exactly one of ``route`` /
    ``client`` must be given:

    ``route``
        Basic path — ``route(request) -> FileServer`` resolves the file
        set's current server *at arrival time*; returning ``None``
        drops the request (counted, optionally published).
    ``client``
        Hardened path — every request is handed to a
        :class:`HardenedClient` for the retry/redirect treatment
        instead of being dropped when routing fails.

    Arrivals replay as a chain of calendar callbacks: each one submits
    every request due at its instant and schedules the next distinct
    arrival time, so the driver costs one event per arrival instant.
    """

    def __init__(
        self,
        env: Simulator,
        schedule: Sequence["MetadataRequest"],
        route: Optional[Callable[["MetadataRequest"], Optional["FileServer"]]] = None,
        client: Optional[HardenedClient] = None,
        probe=None,
    ) -> None:
        if (route is None) == (client is None):
            raise ValueError("exactly one of route/client must be given")
        self.env = env
        self.schedule = list(schedule)
        if any(
            b.arrival < a.arrival for a, b in zip(self.schedule, self.schedule[1:])
        ):
            raise ValueError("request schedule must be sorted by arrival time")
        self.route = route
        self.client = client
        self.probe = probe
        self._submitted = 0
        self._dropped = 0
        self._submit = client.submit if client is not None else self._submit_basic
        # The request the pending calendar entry submits, and the rest.
        self._rest = iter(self.schedule)
        self._due = next(self._rest, None)
        if self._due is not None:
            env.schedule_at(env.now + max(self._due.arrival - env.now, 0.0), self._arrive)

    def _arrive(self) -> None:
        """Submit the request this entry was scheduled for, then every
        following one already due; schedule the next arrival instant."""
        env = self.env
        submit = self._submit
        submit(self._due)
        for request in self._rest:
            delay = request.arrival - env.now
            if delay > 0:
                self._due = request
                env.schedule_at(env.now + delay, self._arrive)
                return
            submit(request)

    def _submit_basic(self, request: "MetadataRequest") -> None:
        server = self.route(request)
        if server is None:
            self._dropped += 1
            if self.probe is not None and self.probe.wants(RequestDropped):
                self.probe.publish(
                    RequestDropped(time=self.env.now, fileset=request.fileset)
                )
            return
        server.submit(request)
        self._submitted += 1

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
            engine.workload.requests,
            route=engine._route,
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
            engine.env, engine.workload.requests, client=client, probe=engine.bus
        )
