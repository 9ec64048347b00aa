"""Scalar/vector tuning parity, per controller.

The same reports through the scalar adapter
(:class:`~repro.policies.anu.ANURandomization` →
:class:`~repro.core.ANUManager`) and the vectorized adapter
(:class:`~repro.policies.vector.VectorANU`) must land on *identical*
region lengths, for every controller in the registry — the tuning rule
is engine-agnostic by construction, and this is the test that keeps it
so. Stateful controllers exercise their per-server state on both
paths; fresh ``make_controller`` instances per side keep the state
independent.
"""

from __future__ import annotations

import pytest

from repro.cluster.fileset import FileSetCatalog
from repro.control import CONTROLLERS, make_controller
from repro.core.hashing import HashFamily
from repro.policies import ANURandomization, VectorANU
from repro.policies.base import RebalanceContext

from .conftest import make_report, report_battery

SERVER_IDS = [0, 1, 2, 3, 4]


def make_catalog(n=40):
    return FileSetCatalog(
        [f"/fs/{i:03d}" for i in range(n)], [100.0 + i for i in range(n)], [10] * n
    )


def run_rounds(policy, battery, interval=120.0):
    for r, reports in enumerate(battery, start=1):
        policy.rebalance(
            RebalanceContext(now=r * interval, round_index=r, reports=reports)
        )
    return policy.region_lengths


@pytest.mark.parametrize("name", sorted(CONTROLLERS))
def test_scalar_and_vector_lengths_identical(name):
    catalog = make_catalog()
    scalar = ANURandomization(
        SERVER_IDS, hash_family=HashFamily(seed=0), controller=make_controller(name)
    )
    vector = VectorANU(
        SERVER_IDS,
        hash_family=HashFamily(seed=0),
        emit_moves=False,
        controller=make_controller(name),
    )
    scalar.initial_placement(catalog, None)
    vector.initial_placement(catalog, None)
    assert scalar.region_lengths == vector.region_lengths
    battery = report_battery(SERVER_IDS, seed=7, rounds=15)
    assert run_rounds(scalar, battery) == run_rounds(vector, battery)


@pytest.mark.parametrize("name", sorted(CONTROLLERS))
def test_parity_survives_idle_and_bursty_reports(name):
    battery = []
    for r in range(10):
        battery.append(
            [
                make_report(0, None, idle_rounds=r + 1),
                make_report(1, 0.3 + 0.05 * r),
                make_report(2, 2.5),
                make_report(3, 1.0, request_count=1),
                make_report(4, 0.9 if r % 2 else 3.0),
            ]
        )
    catalog = make_catalog(25)
    scalar = ANURandomization(
        SERVER_IDS, hash_family=HashFamily(seed=3), controller=make_controller(name)
    )
    vector = VectorANU(
        SERVER_IDS, hash_family=HashFamily(seed=3), controller=make_controller(name)
    )
    scalar.initial_placement(catalog, None)
    vector.initial_placement(catalog, None)
    assert run_rounds(scalar, battery) == run_rounds(vector, battery)


@pytest.mark.parametrize("name", sorted(CONTROLLERS))
def test_assignments_match_after_tuning(name):
    """Same lengths ⇒ same geometry ⇒ same file-set placements."""
    catalog = make_catalog(60)
    scalar = ANURandomization(
        SERVER_IDS, hash_family=HashFamily(seed=1), controller=make_controller(name)
    )
    vector = VectorANU(
        SERVER_IDS, hash_family=HashFamily(seed=1), controller=make_controller(name)
    )
    scalar.initial_placement(catalog, None)
    vector.initial_placement(catalog, None)
    battery = report_battery(SERVER_IDS, seed=11, rounds=8)
    run_rounds(scalar, battery)
    run_rounds(vector, battery)
    for fs in catalog.names:
        assert scalar.locate(fs) == vector.locate(fs), fs
