"""The lazy prescient oracle: computed only when a policy reads it."""

from __future__ import annotations

import pytest

from repro.experiments import paper_config, result_fingerprint, run_comparison
from repro.policies import LazyKnowledge, PrescientKnowledge
from repro.workloads import generate_synthetic


def oracle() -> PrescientKnowledge:
    return PrescientKnowledge(
        server_powers={0: 1.0, 1: 3.0},
        average_work={"/fs/0": 1.5},
    )


class TestLazyKnowledgeUnit:
    def test_factory_not_called_until_read(self):
        calls = []

        def factory():
            calls.append(1)
            return oracle()

        lazy = LazyKnowledge(factory)
        assert calls == []
        assert lazy.server_powers == {0: 1.0, 1: 3.0}
        assert calls == [1]

    def test_factory_called_at_most_once(self):
        calls = []

        def factory():
            calls.append(1)
            return oracle()

        lazy = LazyKnowledge(factory)
        assert lazy.average_work == {"/fs/0": 1.5}
        assert dict(lazy.server_powers) == {0: 1.0, 1: 3.0}
        assert calls == [1]

    def test_is_not_none(self):
        # Policies gate on `ctx.knowledge is None`; a lazy oracle is
        # still an offered oracle.
        lazy = LazyKnowledge(oracle)
        assert lazy is not None


class TestLazyKnowledgeIntegration:
    def test_oracle_free_policies_skip_the_oracle(self, monkeypatch):
        """simple/anu runs must never materialize the oracle."""
        from repro.engine import engine as engine_mod

        builds = []
        original = engine_mod.ClusterEngine._knowledge

        def counting(self):
            builds.append(self.policy.name)
            return original(self)

        monkeypatch.setattr(engine_mod.ClusterEngine, "_knowledge", counting)
        config = paper_config(seed=2, scale=0.03)
        workload = generate_synthetic(config.synthetic_config(), seed=2)
        run_comparison(workload, config, systems=("simple", "anu"))
        assert builds == [], f"oracle built for oracle-free policies: {builds}"

    def test_prescient_policies_still_get_the_oracle(self, monkeypatch):
        from repro.engine import engine as engine_mod

        builds = []
        original = engine_mod.ClusterEngine._knowledge

        def counting(self):
            builds.append(self.policy.name)
            return original(self)

        monkeypatch.setattr(engine_mod.ClusterEngine, "_knowledge", counting)
        config = paper_config(seed=2, scale=0.03)
        workload = generate_synthetic(config.synthetic_config(), seed=2)
        results = run_comparison(workload, config, systems=("prescient", "virtual"))
        assert builds, "prescient-class policies should have read the oracle"
        for result in results.values():
            assert result.completed > 0

    def test_laziness_does_not_change_results(self):
        """Same fingerprints whether the oracle is read or not."""
        config = paper_config(seed=5, scale=0.03)
        workload = generate_synthetic(config.synthetic_config(), seed=5)
        a = run_comparison(workload, config, systems=("anu", "prescient"))
        b = run_comparison(workload, config, systems=("anu", "prescient"))
        for system in ("anu", "prescient"):
            assert result_fingerprint(a[system]) == result_fingerprint(b[system])
