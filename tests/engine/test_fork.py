"""``Workload.fork`` and replay: runs never write into their workload."""

from __future__ import annotations

import copy
import hashlib
import math

import numpy as np

from repro.core.hashing import HashFamily
from repro.engine import (
    ChaosConfig,
    ClusterConfig,
    ExperimentSpec,
    HardenedClientPath,
    chaos_layers,
)
from repro.experiments.cache import _hash_array, result_fingerprint, workload_fingerprint
from repro.faults import FaultEvent, FaultKind, FaultSchedule, chaos_fingerprint
from repro.policies import ANURandomization
from repro.workloads.synthetic import Workload

from .conftest import POWERS

#: A crash and a straggler inside the 300 s tiny workload: the chaos
#: path re-drives orphans and retries through its hardened client.
CHAOS_SCHEDULE = FaultSchedule(
    events=(
        FaultEvent(60.0, FaultKind.CRASH, target=4, duration=60.0),
        FaultEvent(150.0, FaultKind.STRAGGLE, target=3, duration=60.0, params=(0.25,)),
    )
)


def _run(workload, path):
    triple = (
        workload,
        ANURandomization(list(POWERS), hash_family=HashFamily(seed=0)),
        ClusterConfig(server_powers=POWERS),
    )
    if path == "hardened":
        spec = ExperimentSpec(*triple, client_path=HardenedClientPath())
        return result_fingerprint(spec.build().run())
    if path == "chaos":
        spec = ExperimentSpec(*triple, **chaos_layers(CHAOS_SCHEDULE, ChaosConfig(seed=7)))
        return chaos_fingerprint(spec.build().run_chaos())
    return result_fingerprint(ExperimentSpec(*triple).build().run())


class TestFork:
    def test_shares_immutable_columns(self, tiny_workload):
        fork = tiny_workload.fork()
        assert fork.catalog is tiny_workload.catalog
        assert fork.arrivals is tiny_workload.arrivals
        assert fork.works is tiny_workload.works
        assert fork.fs_idx is tiny_workload.fs_idx
        assert fork.name == tiny_workload.name
        assert fork.duration == tiny_workload.duration

    def test_requests_are_fresh_and_identical(self, tiny_workload):
        assert tiny_workload.fork() is tiny_workload
        replayed = list(tiny_workload.replay())
        again = list(tiny_workload.replay())
        assert len(replayed) == len(again) == len(tiny_workload)
        names = tiny_workload.catalog.names
        for mine, other, arrival, work, i in zip(
            replayed,
            again,
            tiny_workload.arrivals.tolist(),
            tiny_workload.works.tolist(),
            tiny_workload.fs_idx.tolist(),
        ):
            assert mine is not other
            assert type(mine.arrival) is float and type(mine.work) is float
            assert (mine.fileset, mine.arrival, mine.work) == (names[i], arrival, work)
            assert mine.server is None
            assert mine.service_start is None
            assert mine.completion is None
            assert math.isnan(mine.latency)

    def test_fork_isolation(self, tiny_workload):
        # Runs over a copy of the session fixture, which stays pristine
        # for other tests even when this contract breaks.
        workload = Workload(
            name=tiny_workload.name,
            catalog=tiny_workload.catalog,
            arrivals=tiny_workload.arrivals.copy(),
            works=tiny_workload.works.copy(),
            fs_idx=tiny_workload.fs_idx.copy(),
            duration=tiny_workload.duration,
        )
        pristine = workload_fingerprint(workload)
        for path in ("basic", "hardened", "chaos"):
            first = _run(workload, path)
            assert _run(workload, path) == first, path
        assert workload_fingerprint(workload) == pristine

    def test_same_fingerprint_as_full_rebuild(self, tiny_workload):
        requests = list(tiny_workload.replay())
        names = tiny_workload.catalog.names
        rebuilt = Workload(
            name=tiny_workload.name,
            catalog=tiny_workload.catalog,
            arrivals=[r.arrival for r in requests],
            works=[r.work for r in requests],
            fs_idx=[names.index(r.fileset) for r in requests],
            duration=tiny_workload.duration,
        )
        assert workload_fingerprint(tiny_workload.fork()) == workload_fingerprint(
            rebuilt
        )


class TestWorkloadFingerprint:
    def test_int64_digest_pinned(self, tiny_workload):
        assert tiny_workload.fs_idx.dtype == np.int32
        assert workload_fingerprint(tiny_workload) == (
            "efeaacd81953130c591a08b8c6a1e8621483ff2887fe6f5b4e1408158a7105b5"
        )

    def test_index_width_does_not_change_digest(self, tiny_workload):
        wide = copy.copy(tiny_workload)
        wide.fs_idx = tiny_workload.fs_idx.astype(np.int64)
        assert workload_fingerprint(wide) == workload_fingerprint(tiny_workload)

    def test_index_values_do_change_digest(self, tiny_workload):
        other = copy.copy(tiny_workload)
        other.fs_idx = tiny_workload.fs_idx[::-1].copy()
        assert workload_fingerprint(other) != workload_fingerprint(tiny_workload)


class TestZeroCopyDigest:
    """Arrays are hashed through their buffer: same bytes as ``.tobytes()``."""

    @staticmethod
    def digests(array, dtype=None):
        via_buffer = hashlib.sha256()
        _hash_array(via_buffer, array, dtype=dtype)
        widened = array if dtype is None else array.astype(dtype)
        return via_buffer.hexdigest(), hashlib.sha256(widened.tobytes()).hexdigest()

    def test_non_contiguous_slice(self):
        column = np.linspace(0.0, 1.0, 101)[::3]
        assert not column.flags.c_contiguous
        mine, reference = self.digests(column)
        assert mine == reference

    def test_int32_index_column_widened(self):
        column = np.arange(-5, 50, dtype=np.int32)
        mine, reference = self.digests(column, dtype=np.int64)
        assert mine == reference
        assert mine != self.digests(column)[1]

    def test_empty_column(self):
        mine, reference = self.digests(np.empty(0))
        assert mine == reference
