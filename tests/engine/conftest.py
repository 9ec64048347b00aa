"""Shared fixtures for the engine-layer tests."""

from __future__ import annotations

import dataclasses

import pytest

from repro.workloads import SyntheticConfig, generate_synthetic

#: The paper's heterogeneous cluster.
POWERS = {0: 1.0, 1: 3.0, 2: 5.0, 3: 7.0, 4: 9.0}


@pytest.fixture(scope="session")
def tiny_workload():
    """A small workload for fast engine smoke runs (read-only master).

    Tests must not run the returned object directly — call
    ``tiny_workload.fork()`` for each simulation.
    """
    cfg = SyntheticConfig(
        n_filesets=10,
        duration=300.0,
        target_requests=600,
        total_capacity=25.0,
    )
    return generate_synthetic(cfg, seed=11)


@pytest.fixture(scope="session")
def golden_workload():
    """The workload behind the distributed/chaos golden fingerprints."""
    cfg = SyntheticConfig(
        n_filesets=20,
        duration=600.0,
        target_requests=2000,
        total_capacity=25.0,
    )
    return generate_synthetic(cfg, seed=12)


def behaviour_fingerprint(result) -> str:
    """``result_fingerprint`` with the kernel's event count zeroed.

    Pins what a run computed, not how many calendar entries it took to
    compute it: a change to the kernel's event traffic that leaves every
    simulated value in place leaves this digest in place.
    """
    from repro.experiments.cache import result_fingerprint

    return result_fingerprint(dataclasses.replace(result, events_processed=0))


def behaviour_chaos_fingerprint(result) -> str:
    """``chaos_fingerprint`` with the base result's event count zeroed."""
    from repro.faults import chaos_fingerprint

    base = dataclasses.replace(result.base, events_processed=0)
    return chaos_fingerprint(dataclasses.replace(result, base=base))
