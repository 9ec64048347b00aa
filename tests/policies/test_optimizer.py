"""The prescient assignment optimizer."""

from __future__ import annotations

import pytest

from repro.cluster import FileSetCatalog
from repro.experiments.cache import result_fingerprint
from repro.experiments.config import paper_config
from repro.experiments.runner import run_system
from repro.policies import (
    DynamicPrescient,
    PrescientKnowledge,
    RebalanceContext,
    VirtualProcessorSystem,
    balance_items,
    estimated_average_latency,
)
from repro.policies import optimizer
from repro.policies.optimizer import BalanceMemo
from repro.workloads import generate_synthetic


POWERS = {0: 1.0, 1: 3.0, 2: 5.0, 3: 7.0, 4: 9.0}


def loads_of(assignment, items):
    loads = {sid: 0.0 for sid in POWERS}
    for name, sid in assignment.items():
        loads[sid] += items[name]
    return loads


class TestObjective:
    def test_empty_loads_zero(self):
        assert estimated_average_latency({0: 0.0}, {0: 1.0}) == 0.0

    def test_balanced_beats_skewed(self):
        powers = {0: 1.0, 1: 1.0}
        balanced = {0: 0.4, 1: 0.4}
        skewed = {0: 0.75, 1: 0.05}
        assert estimated_average_latency(balanced, powers) < estimated_average_latency(
            skewed, powers
        )

    def test_overload_penalized_monotonically(self):
        powers = {0: 1.0}
        vals = [
            estimated_average_latency({0: rho}, powers)
            for rho in (0.5, 0.9, 1.0, 1.5, 3.0)
        ]
        assert vals == sorted(vals)

    def test_faster_server_lower_latency_at_equal_rho(self):
        assert estimated_average_latency({0: 0.5}, {0: 1.0}) > \
            estimated_average_latency({0: 4.5}, {0: 9.0})


class TestBalanceItems:
    def test_respects_capacity_ordering(self):
        items = {f"i{k}": 1.0 for k in range(50)}
        assignment = balance_items(items, POWERS, interval=10.0)
        loads = loads_of(assignment, items)
        # More powerful servers shoulder at least as much load.
        assert loads[4] >= loads[2] >= loads[0]

    def test_every_item_assigned_to_live_server(self):
        items = {f"i{k}": float(k + 1) for k in range(20)}
        assignment = balance_items(items, POWERS)
        assert set(assignment) == set(items)
        assert all(sid in POWERS for sid in assignment.values())

    def test_warm_start_preserved_when_already_optimal(self):
        items = {f"i{k}": 1.0 for k in range(30)}
        first = balance_items(items, POWERS, interval=10.0)
        second = balance_items(items, POWERS, interval=10.0, current=first)
        assert second == first  # no gratuitous churn

    def test_items_on_dead_servers_are_replaced(self):
        items = {"a": 1.0, "b": 1.0}
        current = {"a": 99, "b": 0}  # server 99 no longer exists
        assignment = balance_items(items, POWERS, current=current)
        assert assignment["a"] in POWERS

    def test_zero_work_items_stay_put(self):
        items = {"hot": 10.0, "coldA": 0.0, "coldB": 0.0}
        current = {"hot": 0, "coldA": 1, "coldB": 2}
        assignment = balance_items(items, POWERS, current=current)
        assert assignment["coldA"] == 1
        assert assignment["coldB"] == 2

    def test_deterministic(self):
        items = {f"i{k}": float((k * 7) % 5 + 1) for k in range(40)}
        a = balance_items(items, POWERS, interval=10.0)
        b = balance_items(items, POWERS, interval=10.0)
        assert a == b

    def test_beats_uniform_assignment(self):
        """The optimizer's objective must beat a round-robin spread."""
        items = {f"i{k}": float((k % 7) + 1) for k in range(35)}
        interval = 10.0
        opt = balance_items(items, POWERS, interval=interval)
        rr = {name: list(POWERS)[i % 5] for i, name in enumerate(items)}
        assert estimated_average_latency(
            loads_of(opt, items), POWERS, interval
        ) <= estimated_average_latency(loads_of(rr, items), POWERS, interval)

    def test_no_servers_rejected(self):
        with pytest.raises(ValueError):
            balance_items({"a": 1.0}, {})

    def test_single_server_takes_all(self):
        items = {"a": 1.0, "b": 2.0}
        assignment = balance_items(items, {7: 5.0})
        assert set(assignment.values()) == {7}


class TestBalanceMemo:
    """The oracle policies reuse their last solve on unchanged inputs,
    and every decision stays the one a fresh solve makes."""

    @staticmethod
    def count_solves(monkeypatch) -> list:
        solves = [0]
        solve = optimizer.balance_items

        def counted(*args, **kwargs):
            solves[0] += 1
            return solve(*args, **kwargs)

        monkeypatch.setattr(optimizer, "balance_items", counted)
        return solves

    @pytest.mark.parametrize("system", ["prescient", "virtual"])
    def test_paper_run_is_bit_identical_to_solving_every_round(self, system, monkeypatch):
        config = paper_config(seed=1)
        workload = generate_synthetic(config.synthetic_config(), seed=1)
        solves = self.count_solves(monkeypatch)
        memo = run_system(system, workload.fork(), config)
        # The initial placement and the first round; then every round
        # hands the search the incumbent it returned.
        assert solves[0] == 2
        with monkeypatch.context() as forced:

            def always(self, items, powers, current=None):
                return optimizer.balance_items(items, powers, self.interval, current=current)

            forced.setattr(BalanceMemo, "__call__", always)
            fresh = run_system(system, workload.fork(), config)
        assert solves[0] > 2 + 0.9 * config.synthetic_config().duration / config.tuning_interval
        assert result_fingerprint(memo) == result_fingerprint(fresh)
        assert memo.movement == fresh.movement

    @pytest.mark.parametrize("policy_cls", [DynamicPrescient, VirtualProcessorSystem])
    def test_every_round_matches_a_fresh_solve(self, policy_cls, monkeypatch):
        names = [f"/fs{i}" for i in range(30)]
        catalog = FileSetCatalog(names, [float(5 + 3 * i) for i in range(30)], [10] * 30)
        work = {name: fs.total_work / 10.0 for name, fs in zip(names, catalog)}
        hot = dict(work, **{"/fs3": 40.0})
        straggled = {**POWERS, 4: 2.25}
        # Each state holds for three rounds: the first solves new inputs,
        # the second re-solves only if the first moved something, and
        # the third hands the search the incumbent it just returned.
        states = [
            (POWERS, work), (straggled, work), (POWERS, work), (POWERS, hot), (straggled, hot)
        ]
        rounds = [state for state in states for _ in range(3)]
        policy = policy_cls(list(POWERS))
        policy.initial_placement(catalog, PrescientKnowledge(dict(POWERS), work))
        solves = self.count_solves(monkeypatch)
        for i, (powers, average_work) in enumerate(rounds, start=1):
            # The fresh solve gets the policy's inputs, in its order.
            if policy_cls is DynamicPrescient:
                before = dict(policy._assignment)
                items = {name: average_work[name] for name in before}
                expected = balance_items(items, powers, 120.0, current=before)
            else:
                before = policy.assignments()
                vp = {f"vp{v}": sid for v, sid in policy._server_of_vp.items()}
                vp = balance_items(policy._vp_work(average_work), powers, 120.0, current=vp)
                expected = {name: vp[f"vp{policy._vp(name)}"] for name in before}
            moves = policy.rebalance(
                RebalanceContext(
                    now=120.0 * i,
                    round_index=i,
                    reports=[],
                    knowledge=PrescientKnowledge(dict(powers), average_work),
                )
            )
            assert {name: policy.locate(name) for name in expected} == expected
            assert {(m.fileset, m.source, m.target) for m in moves} == {
                (name, before[name], sid) for name, sid in expected.items() if sid != before[name]
            }
        assert solves[0] <= 2 * len(states)
