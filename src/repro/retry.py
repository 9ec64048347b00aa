"""Client request hardening: one retry policy, one ledger, one attempt loop.

Both hardened clients — the simulated
:class:`~repro.engine.client_path.HardenedClient` and the live
:class:`~repro.service.client.HardenedServiceClient` — drive every
logical request through the same rules: re-locate before each attempt,
count a redirect when the target changes, abandon an attempt only when
its target is gone, back off with capped seeded-jitter exponential
delays, and give up after ``max_attempts``. Those rules live here, once:

* :class:`RetryPolicy` — the five knobs;
* :class:`RequestLedger` — the counters and the two chaos invariants
  (conservation and classification);
* :class:`Attempts` — one logical request's walk through the ledger.
  It owns every ledger transition; a client only waits (a simulated
  timeout or an asyncio sleep) and moves bytes.

The module has no clock and does no I/O, and it imports only
:mod:`repro.sim.monitor` (for :class:`~repro.sim.Tally`), so the live
client loads it without the simulation engine and without NumPy: the
lazy ``repro.sim`` init loads no kernel, and ``Tally`` keeps retained
samples in a stdlib ``array``.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass
from typing import Hashable, Optional

from .sim import Tally

__all__ = ["RetryPolicy", "RequestLedger", "Attempts"]


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side request-hardening knobs.

    Attributes
    ----------
    request_timeout:
        Seconds to wait on a submitted attempt before re-evaluating the
        target's health. A healthy-but-slow server is *not* abandoned
        (FIFO guarantees progress); only a failed or suspected target
        triggers a redirect, so no work is duplicated on live servers.
    max_attempts:
        Total placement attempts (initial + retries) before the request
        is declared failed.
    backoff_base / backoff_cap:
        Exponential backoff between attempts: ``base · 2^(attempt-1)``
        seconds, capped at ``backoff_cap``.
    jitter:
        Fraction of each backoff randomized (``0`` = deterministic
        full backoff, ``0.5`` = uniform in ``[0.5·b, b]``). Drawn from
        the client's seeded rng, so runs replay bit-identically.
    """

    request_timeout: float = 10.0
    max_attempts: int = 10
    backoff_base: float = 0.25
    backoff_cap: float = 5.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        # Every comparison is written so that NaN fails it.
        if not self.request_timeout > 0:
            raise ValueError(f"request_timeout must be > 0, got {self.request_timeout}")
        attempts = self.max_attempts
        if isinstance(attempts, bool) or not isinstance(attempts, numbers.Integral) or attempts < 1:
            raise ValueError(f"max_attempts must be an integer >= 1, got {attempts!r}")
        if not 0 < self.backoff_base <= self.backoff_cap:
            raise ValueError(
                f"need 0 < backoff_base <= backoff_cap, got "
                f"{self.backoff_base}/{self.backoff_cap}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Backoff before retry number ``attempt`` (1-based), jittered."""
        base = min(self.backoff_cap, self.backoff_base * (2.0 ** max(0, attempt - 1)))
        if rng is None or self.jitter == 0.0:
            return base
        return base * (1.0 - self.jitter * rng.random())


class RequestLedger:
    """The request-conservation ledger, independent of any clock.

    Both hardened clients are held to the same two invariants —

    * **conservation**: ``injected == completed + failed + in_flight``;
    * **classification**: every in-flight request sits in exactly one
      of ``dispatching`` / ``awaiting_service`` / ``backing_off``.

    Only :class:`Attempts` moves these counters; the ledger knows
    nothing about *how* requests are driven (calendar callbacks vs
    asyncio tasks), which is what makes the chaos invariants portable
    to sockets.
    """

    def __init__(self) -> None:
        #: Logical requests handed to the client.
        self.injected = 0
        #: Logical requests that completed (first successful attempt).
        self.completed = 0
        #: Logical requests abandoned after ``max_attempts``.
        self.failed = 0
        #: Logical requests currently being driven.
        self.in_flight = 0
        #: Re-submissions after a failed/suspected/unroutable attempt.
        self.retries = 0
        #: Attempts that went to a *different* server than the last one.
        self.redirects = 0
        #: Attempts abandoned because the timeout found the target gone.
        self.timeouts = 0
        #: Where each in-flight request currently sits (classification
        #: of the horizon remainder): locating its target, waiting on a
        #: submitted attempt, or in a backoff sleep between attempts.
        self.dispatching = 0
        self.awaiting_service = 0
        self.backing_off = 0
        #: End-to-end latency of every completed logical request.
        self.latency = Tally(keep=True)

    @property
    def conserved(self) -> bool:
        """The request-conservation ledger: injected == done + pending."""
        return self.injected == self.completed + self.failed + self.in_flight

    @property
    def classified(self) -> bool:
        """Every in-flight request sits in exactly one known bucket."""
        return self.in_flight == (
            self.dispatching + self.awaiting_service + self.backing_off
        )

    @property
    def lost(self) -> int:
        """Requests the ledger cannot account for (must always be 0)."""
        return self.injected - self.completed - self.failed - self.in_flight


class Attempts:
    """One logical request's attempts, as ledger transitions (sans-IO).

    Constructing one injects the request into ``ledger``, in
    ``dispatching``. Each attempt starts with :meth:`next` (``False``
    once ``max_attempts`` are spent) and :meth:`aim` at the located
    target; the client then waits either inside :meth:`send` …
    :meth:`returned` (calling :meth:`timed_out` if the target died) or
    inside :meth:`back_off` … :meth:`resume`, and the request ends with
    :meth:`settle` or :meth:`exhaust`. See the two hardened clients'
    drive loops.

    A move out of the wrong bucket raises :class:`RuntimeError` before
    touching the ledger, so the counters cannot drift. Attempt ``k``'s
    backoff is ``policy.backoff(k, rng)``: one rng draw per backoff.
    """

    __slots__ = ("ledger", "policy", "rng", "attempt", "target", "state")

    def __init__(
        self, ledger: RequestLedger, policy: RetryPolicy, rng: Optional[random.Random] = None
    ) -> None:
        self.ledger = ledger
        self.policy = policy
        self.rng = rng
        #: 1-based number of the current attempt (0 before the first).
        self.attempt = 0
        #: The server the last attempt was aimed at.
        self.target: Optional[Hashable] = None
        #: The ledger counter the request is in: a bucket while in
        #: flight, then ``completed`` or ``failed``.
        self.state = "dispatching"
        ledger.injected += 1
        ledger.in_flight += 1
        ledger.dispatching += 1

    def _expect(self, state: str) -> None:
        if self.state != state:
            raise RuntimeError(f"request is {self.state}, not {state}")

    def _move(self, src: str, dst: str) -> None:
        self._expect(src)
        self.state = dst
        ledger = self.ledger
        setattr(ledger, src, getattr(ledger, src) - 1)
        setattr(ledger, dst, getattr(ledger, dst) + 1)

    @property
    def open(self) -> bool:
        """Whether the request is still in flight."""
        return self.state not in ("completed", "failed")

    def next(self) -> bool:
        """Start the next attempt; ``False`` once ``max_attempts`` are spent."""
        self._expect("dispatching")
        if self.attempt >= self.policy.max_attempts:
            return False
        self.attempt += 1
        return True

    def aim(self, target: Hashable) -> None:
        """This attempt goes to ``target``; a change counts a redirect."""
        self._expect("dispatching")
        if self.target is not None and target != self.target:
            self.ledger.redirects += 1
        self.target = target

    def send(self) -> None:
        """The attempt is on its way."""
        self._move("dispatching", "awaiting_service")

    def timed_out(self) -> None:
        """The timeout found the attempt's target gone; it is abandoned."""
        self._expect("awaiting_service")
        self.ledger.timeouts += 1

    def returned(self) -> None:
        """The attempt is over, either way."""
        self._move("awaiting_service", "dispatching")

    def back_off(self) -> float:
        """Count a retry and start its sleep; returns the delay to wait."""
        self._move("dispatching", "backing_off")
        self.ledger.retries += 1
        return self.policy.backoff(self.attempt, self.rng)

    def resume(self) -> None:
        """The backoff sleep ended."""
        self._move("backing_off", "dispatching")

    def settle(self, latency: float) -> None:
        """The request completed with end-to-end ``latency``."""
        self._move("dispatching", "completed")
        self.ledger.in_flight -= 1
        self.ledger.latency.observe(latency)

    def exhaust(self) -> None:
        """The request gave up (attempts spent, or its driver cancelled)."""
        self._move("dispatching", "failed")
        self.ledger.in_flight -= 1
