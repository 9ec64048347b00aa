"""Incremental epoch-delta relocation: equivalence and the ledger.

``VectorANU`` re-resolves only delta-invalidated names; every
observable — assignments, probe depths, emitted moves, shed counts —
must be bit-identical to a from-scratch resolution of the whole
catalog. The oracle of ``tools/check_relocation_equivalence.py`` checks
that after every reconfiguration: golden timelines pin it across
tuning rounds and crash/recovery churn, a hypothesis property drives
randomized timelines, and the ``RelocationStats`` ledger gets its
contract checks.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.fileset import FileSetCatalog
from repro.core.hashing import HashFamily
from repro.core.tuning import LatencyReport
from repro.core.vector import ProbeMatrix
from repro.policies import vector as policies_vector
from repro.policies.base import RebalanceContext, RelocationStats
from repro.policies.vector import VectorANU

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
from check_relocation_equivalence import (  # noqa: E402
    audit_relocations,
    oracle_problems,
)

SIDS = list(range(8))


def _catalog(n):
    return FileSetCatalog([f"/fs/{i}" for i in range(n)], [1.0] * n, [10] * n)


def _policy(n_filesets=2_000, emit_moves=True):
    policy = VectorANU(
        list(SIDS), hash_family=HashFamily(seed=0), emit_moves=emit_moves
    )
    policy.initial_placement(_catalog(n_filesets), None)
    return policy


def _reports(policy, means):
    return [
        LatencyReport(
            server_id=sid,
            mean_latency=float(mean),
            request_count=10,
            window=(0.0, 120.0),
            idle_rounds=0,
            prev_mean_latency=math.nan,
        )
        for sid, mean in zip(policy.layout.server_ids, means)
    ]


def _tune(policy, round_, means):
    ctx = RebalanceContext(
        now=120.0 * round_, round_index=round_, reports=_reports(policy, means)
    )
    return policy.rebalance(ctx)


def _random_timeline(policy, rng, events):
    """Drive ``policy`` through tune / fail / recover / repartition events.

    A fail that would take the last server down, or a recover with
    nobody down, tunes instead. A repartition doubles the layout's
    partition count under the policy and then tunes, which sends that
    round through the table-rebuild fallback of ``_relocate_delta``
    (churn within a fixed server set never repartitions by itself).
    """
    down = set()
    for round_, kind in enumerate(events):
        if kind == "repartition":
            policy.layout.repartition()
        if kind == "fail" and len(down) < len(SIDS) - 1:
            victim = int(rng.choice([s for s in SIDS if s not in down]))
            down.add(victim)
            policy.server_failed(victim)
        elif kind == "recover" and down:
            back = int(rng.choice(sorted(down)))
            down.discard(back)
            policy.server_added(back)
        else:
            _tune(policy, round_, rng.gamma(2.0, 1.0, size=policy.layout.n_servers))


class TestGoldenEquivalence:
    def test_tuning_rounds_bit_identical(self):
        policy = _policy()
        rng = np.random.default_rng(7)
        with audit_relocations() as problems:
            for round_ in range(10):
                _tune(policy, round_, rng.gamma(2.0, 1.0, size=len(SIDS)))
        assert problems == []
        # Incremental must actually have saved work, or it is just a
        # slower spelling of a from-scratch resolution.
        assert policy.relocation_rounds == 10
        assert 0 < policy.relocated_total < policy.relocation_opportunity

    def test_churn_bit_identical(self):
        policy = _policy()
        rng = np.random.default_rng(13)
        with audit_relocations() as problems:
            for round_ in range(8):
                _tune(policy, round_, rng.gamma(2.0, 1.0, size=policy.layout.n_servers))
                if round_ == 2:
                    assert policy.server_failed(3)
                if round_ == 5:
                    assert policy.server_added(3)
        assert problems == []
        assert set(policy.relocated_by_kind) == {"tune", "fail", "recover"}

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        events=st.lists(
            st.sampled_from(["tune", "fail", "recover", "repartition"]),
            min_size=3,
            max_size=8,
        ),
    )
    def test_random_timelines_bit_identical(self, seed, events):
        policy = _policy(n_filesets=600)
        with audit_relocations() as problems:
            _random_timeline(policy, np.random.default_rng(seed), events)
        assert problems == []

    def test_oracle_flags_a_stale_resolution(self):
        """The oracle is not vacuous: one name left on its old owner, or
        one dropped move, is reported."""
        policy = _policy()
        before = policy._assign.copy()
        moves = _tune(policy, 0, np.linspace(1.0, 5.0, len(SIDS)))
        assert moves and oracle_problems(policy, before, len(moves), moves, "t") == []
        assert oracle_problems(policy, before, len(moves), moves[1:], "t")
        moved = np.flatnonzero(policy._assign != before)[0]
        policy._assign[moved] = before[moved]
        assert oracle_problems(policy, before, len(moves), moves, "t")


class TestInvalidationSet:
    """The probe index names exactly the resolutions a delta can touch."""

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        events=st.lists(
            st.sampled_from(["tune", "fail", "recover", "repartition"]),
            min_size=3,
            max_size=8,
        ),
    )
    def test_equals_brute_force_scan_of_dense_columns(self, seed, events):
        policy = VectorANU(list(SIDS), hash_family=HashFamily(seed=seed))
        policy.initial_placement(_catalog(400), None)
        dense = ProbeMatrix(policy._names, policy.hash_family)
        expected = []
        segment_delta = policies_vector.segment_delta

        def brute_force(*tables_and_masks):
            starts, ends = segment_delta(*tables_and_masks)
            used = policy._used  # still the old epoch's depths here
            hit = np.zeros(used.size, dtype=bool)
            for round_ in range(int(used.max())):
                col = dense.column(round_)
                inside = np.zeros(used.size, dtype=bool)
                for lo, hi in zip(starts, ends):
                    inside |= (col >= lo) & (col < hi)
                hit |= inside & (used > round_)
            expected.append(np.flatnonzero(hit))
            return starts, ends

        got = []
        relocate_delta = VectorANU._relocate_delta

        def recorded(self, changed_sids):
            invalid, old_owner = relocate_delta(self, changed_sids)
            got.append(invalid)
            return invalid, old_owner

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(policies_vector, "segment_delta", brute_force)
            patch.setattr(VectorANU, "_relocate_delta", recorded)
            _random_timeline(policy, np.random.default_rng(seed), events)
        assert len(got) == len(expected) == len(events)
        for invalid, brute in zip(got, expected):
            assert np.array_equal(invalid, brute)
        assert any(invalid.size for invalid in got)


class _CountingFamily(HashFamily):
    digests = 0

    def batch_offsets(self, names, round_=0):
        self.digests += len(names)
        return super().batch_offsets(names, round_)


class TestDigestBudget:
    def test_placement_hashes_what_it_reads_plus_one_round(self):
        """Half occupancy reads ~2 probes per name and placement hashes one
        more per name ahead of the drive: under 4 per name, where whole
        columns for every round the deepest name reached cost 15+."""
        n = 4_000
        family = _CountingFamily(seed=0)
        policy = VectorANU(list(SIDS), hash_family=family)
        policy.initial_placement(_catalog(n), None)
        assert family.digests == int(policy._used.sum()) + n
        assert family.digests <= 4 * n
        assert int(policy._used.max()) >= 8  # the tail whole columns paid for


class TestRelocationLedger:
    def test_fraction_before_any_round_is_zero(self):
        policy = _policy()
        assert policy.relocate_fraction == 0.0
        assert policy.consume_last_relocation() is None

    def test_consume_pops_one_record(self):
        policy = _policy()
        _tune(policy, 0, np.linspace(1.0, 5.0, len(SIDS)))
        info = policy.consume_last_relocation()
        assert info is not None
        assert info["kind"] == "tune"
        assert info["mode"] == "incremental"
        assert info["catalog_size"] == 2_000
        assert 0 <= info["relocated"] <= 2_000
        assert policy.consume_last_relocation() is None  # popped

    def test_mixin_is_opt_in(self):
        assert isinstance(_policy(), RelocationStats)


class TestProbePublishing:
    def test_relocation_applied_reaches_the_bus(self):
        """A vectorized run publishes one RelocationApplied per tuning
        round, carrying the policy's mode."""
        from repro.cluster.cache import CacheConfig
        from repro.engine import (
            ClusterConfig,
            ExperimentSpec,
            RelocationApplied,
            VectorizedClientPath,
        )
        from repro.workloads.scale import ScaleConfig, generate_scale

        powers = {sid: 1.0 + sid for sid in SIDS}
        workload = generate_scale(
            ScaleConfig(
                n_filesets=200,
                target_requests=4_000,
                duration=600.0,
                total_capacity=sum(powers.values()),
            ),
            seed=1,
        )
        policy = VectorANU(list(SIDS), hash_family=HashFamily(seed=0))
        engine = ExperimentSpec(
            workload=workload,
            policy=policy,
            config=ClusterConfig(
                server_powers=powers,
                tuning_interval=60.0,
                cache=CacheConfig(
                    flush_work_scale=0.0, cold_factor=1.0, warmup_time=0.0
                ),
                supply_knowledge=False,
            ),
            client_path=VectorizedClientPath(),
        ).build()
        events = []
        engine.bus.subscribe(RelocationApplied, events.append)
        engine.run()
        assert events, "no RelocationApplied published"
        assert {e.mode for e in events} == {"incremental"}
        assert {e.kind for e in events} == {"tune"}
        assert all(e.catalog_size == 200 for e in events)
        assert sum(e.relocated for e in events) == policy.relocated_total
