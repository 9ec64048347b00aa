"""Shared fixtures for the test suite."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster.cache import CacheConfig
from repro.engine import ClusterConfig
from repro.sim import Simulator
from repro.workloads import SyntheticConfig, generate_synthetic

REPO = Path(__file__).resolve().parents[1]

#: The paper's heterogeneous cluster.
PAPER_POWERS = {0: 1.0, 1: 3.0, 2: 5.0, 3: 7.0, 4: 9.0}


@pytest.fixture
def env():
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def powers():
    """The paper's five-server power map (copy; tests may mutate)."""
    return dict(PAPER_POWERS)


@pytest.fixture(scope="session")
def small_workload():
    """A small but non-trivial synthetic workload (shared, read-only).

    Runs replay it without writing into it, so tests may run it
    directly; they must not mutate its request objects themselves.
    """
    cfg = SyntheticConfig(
        n_filesets=20,
        duration=1200.0,
        target_requests=3000,
        total_capacity=25.0,
    )
    return generate_synthetic(cfg, seed=7)


@pytest.fixture
def cluster_config(powers):
    """Default cluster config over the paper's powers."""
    return ClusterConfig(server_powers=powers)


@pytest.fixture
def no_cache_config(powers):
    """Cluster config with cache effects disabled."""
    return ClusterConfig(
        server_powers=powers,
        cache=CacheConfig(flush_work_scale=0.0, cold_factor=1.0, warmup_time=0.0),
    )


@pytest.fixture(scope="session")
def run_fresh():
    """Run Python source in a fresh interpreter on ``src`` (from the repo
    root, so ``tests`` imports too) and return its stdout — for checks on
    what a process imports."""

    def run(code: str) -> str:
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
