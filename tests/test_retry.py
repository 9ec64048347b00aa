"""The request-hardening core: retry policy, ledger, attempt state machine."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.retry import Attempts, RequestLedger, RetryPolicy

NAN = math.nan


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"request_timeout": 0.0}, "request_timeout"),
            ({"request_timeout": NAN}, "request_timeout"),
            ({"max_attempts": 0}, "max_attempts"),
            ({"max_attempts": 2.5}, "max_attempts"),
            ({"max_attempts": 3.0}, "max_attempts"),
            ({"max_attempts": True}, "max_attempts"),
            ({"backoff_base": 2.0, "backoff_cap": 1.0}, "backoff_base"),
            ({"backoff_base": 0.0}, "backoff_base"),
            ({"backoff_base": NAN}, "backoff_base"),
            ({"backoff_cap": NAN}, "backoff_cap"),
            ({"jitter": 1.5}, "jitter"),
            ({"jitter": -0.1}, "jitter"),
            ({"jitter": NAN}, "jitter"),
        ],
        ids=[
            "timeout-zero",
            "timeout-nan",
            "attempts-zero",
            "attempts-fractional",
            "attempts-float",
            "attempts-bool",
            "base-above-cap",
            "base-zero",
            "base-nan",
            "cap-nan",
            "jitter-above-one",
            "jitter-negative",
            "jitter-nan",
        ],
    )
    def test_validation(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            RetryPolicy(**kwargs)

    @pytest.mark.parametrize(
        "attempt, expected", [(1, 0.25), (2, 0.5), (3, 1.0), (7, 1.0), (10, 1.0)]
    )
    def test_backoff_doubles_then_caps(self, attempt, expected):
        policy = RetryPolicy(backoff_base=0.25, backoff_cap=1.0, jitter=0.0)
        assert policy.backoff(attempt) == expected
        # Without jitter the rng is never drawn.
        assert policy.backoff(attempt, random.Random(1)) == expected

    def test_jitter_shrinks_but_never_grows(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_cap=1.0, jitter=0.5)
        rng = random.Random(1)
        draws = [policy.backoff(1, rng) for _ in range(100)]
        assert all(0.5 <= d <= 1.0 for d in draws)
        assert len(set(draws)) > 1


class TestAttempts:
    def test_retry_then_redirect_then_settle(self):
        ledger = RequestLedger()
        policy = RetryPolicy(backoff_base=0.5, backoff_cap=0.5, jitter=0.0)
        attempts = Attempts(ledger, policy)
        assert ledger.injected == ledger.in_flight == ledger.dispatching == 1

        assert attempts.next()
        attempts.aim("a")
        attempts.send()
        assert (ledger.dispatching, ledger.awaiting_service) == (0, 1)
        attempts.timed_out()
        attempts.returned()
        assert attempts.back_off() == 0.5
        assert (ledger.dispatching, ledger.backing_off) == (0, 1)
        attempts.resume()

        assert attempts.next()
        attempts.aim("b")
        attempts.send()
        attempts.returned()
        attempts.settle(1.5)

        assert (ledger.retries, ledger.redirects, ledger.timeouts) == (1, 1, 1)
        assert ledger.completed == 1 and ledger.in_flight == 0
        assert ledger.dispatching == ledger.awaiting_service == ledger.backing_off == 0
        assert ledger.latency.mean == pytest.approx(1.5)
        assert not attempts.open

    @pytest.mark.parametrize(
        "setup, illegal",
        [
            ([], "resume"),
            ([], "returned"),
            ([], "timed_out"),
            (["send"], "settle"),
            (["send"], "back_off"),
            (["send"], "next"),
            (["back_off"], "exhaust"),
            (["back_off"], "send"),
            (["settle"], "exhaust"),
        ],
        ids=lambda v: v if isinstance(v, str) else "-".join(v) or "fresh",
    )
    def test_illegal_move_raises_and_leaves_ledger(self, setup, illegal):
        ledger = RequestLedger()
        attempts = Attempts(ledger, RetryPolicy())
        attempts.next()
        for step in setup:
            getattr(attempts, step)(*((0.1,) if step == "settle" else ()))
        before = dict(vars(ledger))
        with pytest.raises(RuntimeError):
            getattr(attempts, illegal)(*((0.1,) if illegal == "settle" else ()))
        assert vars(ledger) == before


#: The legal moves out of each bucket (``aim`` and ``next`` stay put).
LEGAL = {
    "dispatching": ("next", "aim", "send", "back_off", "settle", "exhaust"),
    "awaiting_service": ("timed_out", "returned"),
    "backing_off": ("resume",),
}


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    jitter=st.sampled_from([0.0, 0.5, 1.0]),
    max_attempts=st.integers(1, 5),
    data=st.data(),
)
def test_random_walks_keep_the_ledger_balanced(seed, jitter, max_attempts, data):
    """Any sequence of legal moves over concurrent requests keeps both
    invariants after every step, and every backoff delay is exactly
    ``policy.backoff(k, rng)`` drawn from a twin of the client's rng."""
    policy = RetryPolicy(
        max_attempts=max_attempts, backoff_base=0.1, backoff_cap=0.4, jitter=jitter
    )
    ledger = RequestLedger()
    rng, twin = random.Random(seed), random.Random(seed)
    requests = []
    expected = {"retries": 0, "redirects": 0, "timeouts": 0}
    for _ in range(data.draw(st.integers(1, 60), label="steps")):
        live = [a for a in requests if a.open]
        if not live or data.draw(st.integers(0, 4), label="inject") == 0:
            requests.append(Attempts(ledger, policy, rng))
        else:
            attempts = data.draw(st.sampled_from(live), label="request")
            move = data.draw(st.sampled_from(LEGAL[attempts.state]), label="move")
            if move == "aim":
                target = data.draw(st.integers(0, 2), label="target")
                if attempts.target is not None and target != attempts.target:
                    expected["redirects"] += 1
                attempts.aim(target)
            elif move == "back_off":
                expected["retries"] += 1
                assert attempts.back_off() == policy.backoff(attempts.attempt, twin)
            elif move == "next":
                started = attempts.attempt
                assert attempts.next() == (started < max_attempts)
                assert attempts.attempt == min(started + 1, max_attempts)
            elif move == "settle":
                attempts.settle(1.0)
            elif move == "timed_out":
                expected["timeouts"] += 1
                attempts.timed_out()
            else:
                getattr(attempts, move)()
        assert ledger.conserved and ledger.classified and ledger.lost == 0
        for bucket in LEGAL:
            assert getattr(ledger, bucket) == sum(a.state == bucket for a in requests)
        assert ledger.completed == sum(a.state == "completed" for a in requests)
        assert ledger.failed == sum(a.state == "failed" for a in requests)
        assert ledger.injected == len(requests)
        assert {k: getattr(ledger, k) for k in expected} == expected
