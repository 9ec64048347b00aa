"""The vectorized client path reproduces the scalar path's numbers.

Two engines, same workload, same policy geometry: the scalar driver
steps request by request through the event kernel; the vectorized
driver drains whole tuning-interval cohorts through
:func:`repro.core.vector.fifo_drain`. The contract:

* request accounting (submitted / completed / per-server counts) and
  reconfiguration moves are **identical**;
* latency aggregates agree to float rounding (the vectorized prefix-sum
  association differs from the scalar chain at ~1e-13 relative) —
  asserted at 1e-9;
* the scalar path itself is untouched — pinned by golden result
  fingerprints.

Both engines run both kinds of schedule: the aggregate contract is
checked on the paper's synthetic workload and on a small
:func:`~repro.workloads.generate_scale` one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cache import CacheConfig
from repro.core.errors import ConfigurationError
from repro.core.hashing import HashFamily
from repro.engine import ClusterConfig, ExperimentSpec, VectorizedClientPath
from repro.engine.probes import ProbeBus, RequestCompleted
from repro.policies import ANURandomization, VectorANU
from repro.workloads import ScaleConfig, generate_scale, generate_synthetic

from .conftest import behaviour_fingerprint

SIDS = [f"s{i}" for i in range(5)]
POWERS = {sid: p for sid, p in zip(SIDS, (1, 3, 5, 7, 9))}

#: Cache effects off — the vectorized path's documented scope.
NO_CACHE = CacheConfig(flush_work_scale=0.0, cold_factor=1.0, warmup_time=0.0)


def _config():
    return ClusterConfig(
        server_powers=POWERS,
        tuning_interval=120.0,
        cache=NO_CACHE,
        supply_knowledge=False,
    )


def _run(workload, vector: bool):
    if vector:
        policy = VectorANU(SIDS, hash_family=HashFamily(seed=0))
        spec = ExperimentSpec(
            workload=workload,
            policy=policy,
            config=_config(),
            client_path=VectorizedClientPath(),
        )
    else:
        policy = ANURandomization(SIDS, hash_family=HashFamily(seed=0))
        spec = ExperimentSpec(workload=workload, policy=policy, config=_config())
    return spec.build().run()


@pytest.fixture(scope="module")
def scalar_result():
    return _run(generate_synthetic(seed=7), vector=False)


@pytest.fixture(scope="module")
def vector_result():
    return _run(generate_synthetic(seed=7), vector=True)


#: 200 file sets, 20k requests over 20 simulated minutes at the paper
#: cluster's 0.6 utilization.
SCALE_WORKLOAD = ScaleConfig(
    n_filesets=200, target_requests=20_000, duration=1_200.0, total_capacity=25.0
)


class TestAggregateEquivalence:
    def test_request_accounting_identical(self, scalar_result, vector_result):
        assert vector_result.submitted == scalar_result.submitted
        assert vector_result.completed == scalar_result.completed
        assert vector_result.all_latencies.size == scalar_result.all_latencies.size

    def test_moves_identical(self, scalar_result, vector_result):
        assert vector_result.total_moves == scalar_result.total_moves
        assert [m.moves for m in vector_result.movement] == [
            m.moves for m in scalar_result.movement
        ]

    def test_latency_aggregates_within_tolerance(self, scalar_result, vector_result):
        assert vector_result.aggregate_mean_latency == pytest.approx(
            scalar_result.aggregate_mean_latency, rel=1e-9, abs=1e-9
        )
        assert vector_result.aggregate_std_latency == pytest.approx(
            scalar_result.aggregate_std_latency, rel=1e-9, abs=1e-9
        )

    def test_per_server_counts_identical(self, scalar_result, vector_result):
        assert vector_result.server_requests == scalar_result.server_requests

    def test_per_server_moments_within_tolerance(self, scalar_result, vector_result):
        for sid in SIDS:
            a = scalar_result.server_tally[sid]
            b = vector_result.server_tally[sid]
            assert b.count == a.count
            assert b.mean == pytest.approx(a.mean, rel=1e-9, abs=1e-9)
            assert b.std == pytest.approx(a.std, rel=1e-9, abs=1e-9)
            assert b.minimum == pytest.approx(a.minimum, rel=1e-12, abs=1e-12)
            assert b.maximum == pytest.approx(a.maximum, rel=1e-12, abs=1e-12)


class TestAggregateEquivalenceAtScale(TestAggregateEquivalence):
    """The same assertions on a columnar scale workload, which the
    scalar engine replays like any other."""

    @pytest.fixture(scope="class")
    def scalar_result(self):
        return _run(generate_scale(SCALE_WORKLOAD, seed=7), vector=False)

    @pytest.fixture(scope="class")
    def vector_result(self):
        return _run(generate_scale(SCALE_WORKLOAD, seed=7), vector=True)


class TestVectorPathScope:
    """The documented limits fail loudly, not silently."""

    def test_cache_effects_rejected(self):
        wl = generate_synthetic(seed=1)
        spec = ExperimentSpec(
            workload=wl,
            policy=VectorANU(SIDS, hash_family=HashFamily(seed=0)),
            config=ClusterConfig(server_powers=POWERS, supply_knowledge=False),
            client_path=VectorizedClientPath(),
        )
        with pytest.raises(ConfigurationError, match="cache effects"):
            spec.build().run()

    def test_request_probes_rejected(self):
        wl = generate_synthetic(seed=1)
        bus = ProbeBus()
        bus.subscribe(RequestCompleted, lambda e: None)
        spec = ExperimentSpec(
            workload=wl,
            policy=VectorANU(SIDS, hash_family=HashFamily(seed=0)),
            config=_config(),
            client_path=VectorizedClientPath(),
            bus=bus,
        )
        with pytest.raises(ConfigurationError, match="RequestCompleted"):
            spec.build().run()

    def test_per_server_samples_unavailable(self, vector_result):
        # The driver collects latencies itself; per-server tallies shed
        # their sample buffers (streaming moments still work, above).
        with pytest.raises(ValueError, match="keep=False"):
            vector_result.server_tally[SIDS[0]].samples


class TestScalarPathGolden:
    """Golden fingerprints: the scalar path is byte-for-byte untouched.

    Computed from the pre-vectorization scalar engine; any change to
    scalar request stepping, hashing, tuning, or result assembly flips
    these. The full digests also hash the kernel's event count; the
    behaviour pins, taken with that count zeroed, hold the simulated
    values alone.
    """

    GOLDEN = {
        "simple": "7cf874adf2d1a05e21454b5043431402444e5286d914ad994e1819019056f08f",
        "anu": "57989eb14e50f4bd992f31ba3510e672824ee581b0447c55bd08ecd60a2b6003",
    }
    #: Behaviour pins (event count zeroed) and event counts of the same runs.
    BEHAVIOUR = {
        "simple": "73a962dc389f9a24c7ebf92e0b99d37c7e74019247d28df44e3739768cfa2531",
        "anu": "ffd68fda132090f952c7b16c8f49b6feab560a71d0994906a061b2b4a6299a3a",
    }
    EVENTS = {"simple": 6352, "anu": 6581}

    def test_scalar_fingerprints_pinned(self):
        from repro.experiments import paper_config, result_fingerprint, run_comparison

        config = paper_config(seed=3, scale=0.05)
        wl = generate_synthetic(config.synthetic_config(), seed=3)
        out = run_comparison(wl, config, systems=tuple(self.GOLDEN))
        for system, want in self.GOLDEN.items():
            assert behaviour_fingerprint(out[system]) == self.BEHAVIOUR[system]
            assert out[system].events_processed == self.EVENTS[system]
            assert result_fingerprint(out[system]) == want, (
                f"scalar path fingerprint drifted for {system!r}"
            )
