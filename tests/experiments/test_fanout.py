"""Zero-copy fan-out: payload sharing, ordering, and crash recovery."""

from __future__ import annotations

import multiprocessing as mp
import os

import pytest

from repro.experiments.fanout import (
    default_workers,
    resolve_workers,
    shared_payload,
    stream_map,
)


# ---------------------------------------------------------------------- #
# module-level worker functions (must be picklable by the pool)
# ---------------------------------------------------------------------- #
def _square(job: int) -> int:
    return job * job


def _payload_sum(job: int) -> int:
    payload = shared_payload()
    return job + sum(payload["numbers"])


def _crash_in_worker(job: int) -> int:
    # Simulate a worker segfault: no exception, no cleanup. Guarded to
    # pool workers only, so the in-process fallback (which runs in the
    # test process) completes instead of killing pytest.
    if job == 3 and mp.parent_process() is not None:
        os._exit(13)
    return job


def _crash_once(job: int) -> int:
    # Crash the first worker that sees job 3, then behave: the fresh
    # retry pool must succeed without reaching the in-process fallback.
    if job == 3 and mp.parent_process() is not None:
        flag = shared_payload()["flag"]
        if not os.path.exists(flag):
            with open(flag, "w") as fh:
                fh.write("crashed")
            os._exit(13)
    return job


def _raise_on_three(job: int) -> int:
    if job == 3:
        raise ValueError("job three is poisonous")
    return job


def _pid(job: int) -> int:
    return os.getpid()


class TestStreamMap:
    def test_results_in_submission_order(self):
        jobs = list(range(20))
        assert stream_map(_square, jobs, max_workers=4) == [j * j for j in jobs]

    def test_empty_jobs(self):
        assert stream_map(_square, [], max_workers=4) == []

    def test_single_worker_runs_in_process(self):
        pids = stream_map(_pid, [1, 2, 3], max_workers=1)
        assert set(pids) == {os.getpid()}

    def test_payload_shared_in_process(self):
        out = stream_map(
            _payload_sum, [10], payload={"numbers": [1, 2, 3]}, max_workers=4
        )
        assert out == [16]
        assert shared_payload() is None  # cleared after the call

    def test_payload_shared_across_forked_workers(self):
        out = stream_map(
            _payload_sum,
            [0, 10, 100, 1000],
            payload={"numbers": list(range(100))},
            max_workers=2,
            chunk_size=1,
        )
        assert out == [4950, 4960, 5050, 5950]

    def test_transient_worker_crash_recovers_via_retry(self, tmp_path):
        # The first worker to see job 3 dies; the fresh-pool retry runs
        # it clean. Full, ordered results, no in-process fallback.
        out = stream_map(
            _crash_once,
            [1, 2, 3, 4, 5, 6],
            payload={"flag": str(tmp_path / "crashed")},
            max_workers=2,
            chunk_size=1,
        )
        assert out == [1, 2, 3, 4, 5, 6]
        assert (tmp_path / "crashed").exists()  # the crash really fired

    def test_persistent_worker_crash_falls_back_in_process(self, capsys):
        # Job 3 kills every pool worker that touches it; its chunk must
        # eventually run in-process while every other chunk still
        # completes, in order.
        out = stream_map(
            _crash_in_worker, [1, 2, 3, 4, 5, 6], max_workers=2, chunk_size=1
        )
        assert out == [1, 2, 3, 4, 5, 6]
        captured = capsys.readouterr()
        assert "running it in-process" in captured.err

    def test_job_exception_stays_loud(self):
        # An exception raised by fn is not a crash: no retry, no
        # fallback masking — it propagates.
        with pytest.raises(ValueError, match="poisonous"):
            stream_map(
                _raise_on_three, [1, 2, 3, 4, 5, 6], max_workers=2, chunk_size=1
            )


class TestDefaultWorkers:
    def test_env_unset_uses_cpu_count(self):
        """The environment holds no worker count: the default is the CPU count."""
        assert default_workers() == (os.cpu_count() or 1)


class TestResolveWorkers:
    def test_none_defers_to_default(self):
        assert resolve_workers(None) == resolve_workers() == default_workers()

    def test_explicit_count_wins_over_env(self):
        """An explicit count wins over the CPU-count default."""
        assert resolve_workers(2) == 2

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError, match=">= 1"):
            resolve_workers(0)
        with pytest.raises(ValueError, match=">= 1"):
            resolve_workers(-3)
