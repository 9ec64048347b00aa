"""Who owns a finished vector run's request-sized output.

A finished :class:`~repro.engine.engine.ClusterEngine` is cyclic garbage
(its driver points back at it, and calendar entries close over it), and
an array-heavy run allocates too few container objects for the cyclic
collector to come by soon. So the run's one request-sized array — the
latency column — must belong to the result alone: dropping the result
frees it at once, whether or not the engine has been collected yet.
These tests hold that with the cyclic collector switched off.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import pytest

from repro.cluster.cache import CacheConfig
from repro.engine import ClusterConfig, ExperimentSpec, VectorizedClientPath
from repro.experiments.scale import make_scale_policy, scale_powers
from repro.workloads.scale import ScaleConfig, generate_scale

N_SERVERS = 5


def array_workload(n_requests: int, seed: int = 3):
    return generate_scale(
        ScaleConfig(
            n_filesets=50,
            target_requests=n_requests,
            duration=600.0,
            total_capacity=sum(scale_powers(N_SERVERS).values()),
        ),
        seed=seed,
    )


def vector_cell(workload, policy_name: str = "anu"):
    powers = scale_powers(N_SERVERS)
    return ExperimentSpec(
        workload=workload.fork(),
        policy=make_scale_policy(policy_name, list(powers)),
        config=ClusterConfig(
            server_powers=powers,
            tuning_interval=60.0,
            cache=CacheConfig(flush_work_scale=0.0, cold_factor=1.0, warmup_time=0.0),
            supply_knowledge=False,
        ),
        client_path=VectorizedClientPath(),
    ).build()


@pytest.fixture
def no_cyclic_gc():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class TestLatencyColumnOwnership:
    def test_dropping_the_result_frees_the_column(self, no_cyclic_gc):
        result = vector_cell(array_workload(4_000)).run()
        assert result.all_latencies.size == result.completed > 0
        column = weakref.ref(result.all_latencies.base)
        del result
        assert column() is None

    def test_dead_engines_do_not_pile_up(self, no_cyclic_gc):
        workload = array_workload(100_000)
        column_bytes = 8 * len(workload)

        def run_and_drop(policy_name: str) -> None:
            result = vector_cell(workload, policy_name).run()
            assert result.all_latencies.size > 0.9 * len(workload)

        tracemalloc.start()
        try:
            run_and_drop("anu")
            after_first = tracemalloc.get_traced_memory()[0]
            run_and_drop("chbl")
            run_and_drop("jsq2")
            after_third = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after_third - after_first < column_bytes / 4

    def test_the_run_cannot_continue_past_the_hand_off(self):
        engine = vector_cell(array_workload(4_000))
        engine.run(until=300.0)
        with pytest.raises(RuntimeError, match="handed to its result"):
            engine.run()

    def test_column_is_landed_not_copied(self):
        engine = vector_cell(array_workload(4_000))
        result = engine.run()
        latencies = result.all_latencies
        assert latencies.base.size == len(engine.workload)
        assert engine.driver.landed == latencies.size == result.completed
