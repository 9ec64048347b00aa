"""Hash family: determinism, uniformity, round independence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ConfigurationError, HashFamily


class TestDeterminism:
    def test_same_seed_same_offsets(self):
        a, b = HashFamily(seed=3), HashFamily(seed=3)
        for r in range(4):
            assert a.offset("/home/u1", r) == b.offset("/home/u1", r)

    def test_different_seeds_differ(self):
        a, b = HashFamily(seed=1), HashFamily(seed=2)
        diffs = sum(a.offset(f"n{i}") != b.offset(f"n{i}") for i in range(20))
        assert diffs >= 19

    def test_rounds_are_independent(self):
        fam = HashFamily(seed=0)
        offs = [fam.offset("same-name", r) for r in range(10)]
        assert len(set(offs)) == 10

    def test_offset_in_unit_interval(self):
        fam = HashFamily()
        for i in range(200):
            x = fam.offset(f"name-{i}")
            assert 0.0 <= x < 1.0

    def test_round_outside_budget_rejected(self):
        fam = HashFamily(max_probes=4)
        with pytest.raises(ConfigurationError):
            fam.offset("x", 4)


class TestUniformity:
    def test_offsets_roughly_uniform(self):
        fam = HashFamily(seed=7)
        xs = fam.batch_offsets([f"/fs/{i}" for i in range(4000)])
        hist, _ = np.histogram(xs, bins=10, range=(0, 1))
        # 400 expected per bin; 4-sigma band ≈ ±80
        assert hist.min() > 300 and hist.max() < 500

    def test_uniform_server_choice_balanced(self):
        fam = HashFamily(seed=7)
        counts = np.zeros(5, dtype=int)
        for i in range(5000):
            counts[fam.uniform_server_choice(f"item{i}", 5)] += 1
        assert counts.min() > 800 and counts.max() < 1200

    def test_uniform_server_choice_range(self):
        fam = HashFamily()
        for i in range(100):
            assert 0 <= fam.uniform_server_choice(f"x{i}", 3) < 3

    def test_uniform_choice_bad_n(self):
        with pytest.raises(ConfigurationError):
            HashFamily().uniform_server_choice("x", 0)


class TestBatchAPIs:
    def test_offsets_matches_scalar(self):
        fam = HashFamily(seed=5)
        names = [f"a{i}" for i in range(10)]
        batch = fam.batch_offsets(names, round_=2)
        for name, x in zip(names, batch):
            assert x == fam.offset(name, 2)

    def test_probe_sequence_lazy_prefix(self):
        fam = HashFamily(seed=1)
        seq = list(fam.probe_sequence("name"))
        assert len(seq) == fam.max_probes
        assert seq[0] == fam.offset("name", 0)

    def test_bad_max_probes(self):
        with pytest.raises(ConfigurationError):
            HashFamily(max_probes=0)
