"""The paper's claims as one table: ``python -m repro.experiments claims``.

A :class:`Claim` names its EXPERIMENTS.md section, the run that produces it
(an attribute of :class:`Runs`: a figure or an ablation cell) and a check
that turns the run into a measured value and its bound. :func:`report`
prints one row per claim and returns 1 when a claim fails or a known
failure holds (strict-xfail semantics). No flags: seed 1, full scale, ~10 s.
"""

from __future__ import annotations

import argparse
import math
import operator
import sys
import time
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.bounds import anu_balance_bound, measure_balance
from ..cluster.cache import CacheConfig
from ..control.multiplicative import MultiplicativeController
from ..core.anu import ANUManager
from ..core.hashing import HashFamily
from ..core.interval import IntervalLayout, region_difference, required_partitions
from ..distributed.chord import ChordRing
from ..distributed.state import state_table
from ..engine import ExperimentSpec
from ..engine.record import ClusterResult
from ..metrics.consistency import jain_index
from ..metrics.latency import convergence_round, steady_state_means
from ..metrics.summary import ascii_table
from ..policies.weighted import WeightedHashing
from ..workloads.shifting import ShiftConfig, generate_shifting
from ..workloads.synthetic import Workload, generate_synthetic
from .config import PAPER_POWERS, paper_config
from .figures.fig4 import run as run_fig4
from .figures.fig5 import Fig5Data, run as run_fig5
from .figures.fig7 import Fig7Data, run as run_fig7
from .figures.fig8 import DEFAULT_SWEEP, Fig8Data, run as run_fig8
from .runner import make_policy, run_comparison, run_system

__all__ = ["Claim", "CLAIMS", "Runs", "evaluate", "report", "main"]

#: A claim's comparison: ``measured <op> bound``.
OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "==": operator.eq}

RULES = ("weighted", "arithmetic", "trimmed")
INTERVALS = (30.0, 60.0, 120.0, 240.0, 480.0)
EQUAL_POWERS = {i: 5.0 for i in range(5)}  # the paper's total capacity, 25
STATE_SIZES = ((5, 50), (20, 400), (100, 5_000), (1_000, 100_000))
BALANCE_CASES = ((64, 8), (256, 16), (1_024, 32))
RING_SIZES = (25, 100, 400)
SEEDS = (1, 2, 3)

Results = Dict[str, ClusterResult]


@dataclass(frozen=True)
class Claim:
    """One checked statement of EXPERIMENTS.md.

    ``section`` is the EXPERIMENTS.md heading up to its first `` — `` or `` (``.
    ``check`` maps the ``run`` attribute of :class:`Runs` to ``(measured, bound)``;
    the claim holds when ``measured <op> bound``. ``known_failure`` says where
    ROADMAP tracks a claim that fails today (empty: the claim must hold).
    """

    id: str
    section: str
    run: str
    op: str
    check: Callable[[Any], Tuple[Any, Any]]
    known_failure: str = ""


class Runs:
    """Every run the claims read, each built once, on first use.

    The Figure 5 comparison is also Figure 8's references and 25-VP point,
    A1's ``weighted`` rule, A2's 120 s interval, A9's ``simple`` / ``anu``
    and A11's seed-1 runs."""

    def __init__(self, seed: int = 1, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale
        self.config = paper_config(seed=seed, scale=scale)

    def _engine(self, system: str, config=None, workload=None):
        """An engine for ``system``; by default the paper's config over :attr:`synthetic`."""
        config = config or self.config
        policy = make_policy(system, config)
        return ExperimentSpec(workload or self.synthetic, policy, config.cluster_config()).build()

    def _variant(self, **changes: Any) -> Workload:
        """The synthetic workload with some of its parameters changed."""
        return generate_synthetic(replace(self.config.synthetic_config(), **changes), self.seed)

    @cached_property
    def synthetic(self) -> Workload:
        """The §5.1 synthetic workload that Figures 5–8 replay."""
        return generate_synthetic(self.config.synthetic_config(), seed=self.seed)

    @cached_property
    def fig4(self) -> Results:
        return run_fig4(seed=self.seed, scale=self.scale).results

    @cached_property
    def _fig5(self) -> Fig5Data:
        return run_fig5(seed=self.seed, scale=self.scale)

    @property
    def fig5(self) -> Results:
        """The four-system comparison of Figures 5 and 6."""
        return self._fig5.results

    @cached_property
    def fig7(self) -> Fig7Data:
        return run_fig7(fig5=self._fig5)

    @cached_property
    def fig8(self) -> Fig8Data:
        return run_fig8(fig5=self._fig5)

    @cached_property
    def repartition(self) -> Tuple[List[Tuple[int, int, bool, int]], List[float]]:
        """Figure 3: (servers, partitions, re-partitioned?, moves) per admission
        from 4 to 64 servers, and the measure moved by doubling partitions."""
        mgr = ANUManager(server_ids=[0, 1, 2, 3], hash_family=HashFamily(seed=0))
        mgr.register_filesets([f"/fs{i}" for i in range(200)])
        log = []
        for sid in range(4, 64):
            before = mgr.layout.n_partitions
            moved = mgr.add_server(sid).moved
            mgr.layout.check_invariants()
            log.append((sid + 1, mgr.layout.n_partitions, mgr.layout.n_partitions != before, moved))
        diffs = []
        for k in (3, 10, 40):
            layout = IntervalLayout.initial(list(range(k)))
            before_layout = layout.copy()
            layout.repartition()
            diffs.append(region_difference(before_layout, layout))
        return log, diffs

    @cached_property
    def averaging(self) -> Results:
        """A1: ANU under each averaging rule (``weighted`` is the default), and simple."""
        out = {"weighted": self.fig5["anu"], "simple": self.fig5["simple"]}
        for rule in RULES[1:]:
            controller = MultiplicativeController(averaging=rule)
            out[rule] = run_system("anu", self.synthetic, self.config, controller=controller)
        return out

    @cached_property
    def interval(self) -> Dict[float, ClusterResult]:
        """A2: ANU at each tuning interval."""
        return {
            i: self.fig5["anu"]
            if i == self.config.tuning_interval
            else run_system("anu", self.synthetic, replace(self.config, tuning_interval=i))
            for i in INTERVALS
        }

    @cached_property
    def homogeneous(self) -> Dict[str, Tuple[ClusterResult, np.ndarray]]:
        """A3: (result, requests per server) with equal servers, equal file
        sets and equal request work."""
        workload = self._variant(x_low=5.0, x_high=5.0, work_sigma=0.0)
        config = replace(self.config, powers=dict(EQUAL_POWERS))
        results = run_comparison(workload, config, systems=("simple", "anu"))
        return {
            system: (r, np.array([r.server_requests[s] for s in EQUAL_POWERS], dtype=float))
            for system, r in results.items()
        }

    @cached_property
    def churn(self) -> Tuple[ClusterResult, list]:
        """A4: ANU while server 2 fails at 25 % of the run and recovers at 60 %,
        and the movement records of the failure and the recovery."""
        engine = self._engine("anu")
        duration = self.config.synthetic_config().duration
        engine.schedule_failure(duration * 0.25, 2)
        engine.schedule_recovery(duration * 0.60, 2)
        result = engine.run()
        engine.policy.manager.layout.check_invariants()
        return result, [m for m in result.movement if m.kind != "tune"]

    @cached_property
    def state(self) -> Dict[Tuple[int, str], int]:
        """A5: replicated-state entries per (servers, scheme), five VPs a server."""
        return {
            (k, fp.scheme): fp.entries
            for k, m in STATE_SIZES
            for fp in state_table(IntervalLayout.initial(list(range(k))), 5 * k, m)
        }

    @cached_property
    def balance(self) -> Dict[Tuple[int, int], Dict[str, list]]:
        """A6: d-choice and one-choice placements, 15 trials per (m, n)."""
        return {c: measure_balance(*c, trials=15, d=2, seed=7) for c in BALANCE_CASES}

    @cached_property
    def lookup_probes(self) -> int:
        """A7: probes of 1,000 ANU lookups on 16 servers."""
        mgr = ANUManager(server_ids=list(range(16)), hash_family=HashFamily(seed=0))
        return sum(mgr.lookup(f"/namespace/dir{i}/subtree")[1] for i in range(1_000))

    @cached_property
    def vp_granularity(self) -> Results:
        """A8: 5, 15 and 50 VPs against prescient at utilization 0.7."""
        workload = self._variant(utilization=0.7)
        out = {f"vp{n}": run_system("virtual", workload, self.config, n) for n in (5, 15, 50)}
        out["prescient"] = run_system("prescient", workload, self.config)
        return out

    @cached_property
    def weighted(self) -> Results:
        """A9: static capacity-weighted rendezvous hashing beside simple and ANU."""
        policy = WeightedHashing(dict(self.config.powers), hash_family=HashFamily(seed=0))
        spec = ExperimentSpec(self.synthetic, policy, self.config.cluster_config())
        out = {system: self.fig5[system] for system in ("simple", "anu")}
        out["weighted"] = spec.build().run()
        return out

    @cached_property
    def chord(self) -> Dict[object, Tuple[int, float]]:
        """A10: (per-node state, mean probes) over 500 lookups of Chord rings and of ANU."""
        out: Dict[object, Tuple[int, float]] = {}
        for n in RING_SIZES:
            ring = ChordRing([f"vp{i}" for i in range(n)], hash_family=HashFamily(seed=4))
            hops = [ring.route(f"/fs/{i}")[1] for i in range(500)]
            out[n] = (ring.per_node_state(), float(np.mean(hops)))
        mgr = ANUManager(server_ids=list(range(5)), hash_family=HashFamily(seed=4))
        for i in range(500):
            mgr.lookup(f"/fs/{i}")
        out["anu"] = (mgr.shared_state_entries(), mgr.mean_probes)
        return out

    @cached_property
    def seeds(self) -> Dict[int, Results]:
        """A11: simple, ANU and prescient at each workload seed."""
        systems = ("simple", "anu", "prescient")
        out = {self.seed: {system: self.fig5[system] for system in systems}}
        for seed in (s for s in SEEDS if s != self.seed):
            other = Runs(seed=seed, scale=self.scale)
            out[seed] = run_comparison(other.synthetic, other.config, systems)
        return out

    @cached_property
    def cache_sweep(self) -> Dict[str, Tuple[ClusterResult, Any]]:
        """A12: (ANU's result, its cache model), free movement to punitive."""
        out = {}
        for name, cache in (
            ("free", CacheConfig(flush_work_scale=0.0, cold_factor=1.0, warmup_time=0.0)),
            ("paper-ish", self.config.cache),
            ("punitive", CacheConfig(flush_work_scale=20.0, cold_factor=3.0, warmup_time=120.0)),
        ):
            engine = self._engine("anu", replace(self.config, cache=cache))
            out[name] = (engine.run(), engine.cache)
        return out

    @cached_property
    def hotspot(self) -> Dict[str, Any]:
        """A13: three cold file sets heat up 8x at mid-run. ANU and prescient,
        the hot sets' final homes under ANU, and ANU's moves per round in the
        five rounds after the shift and after those."""
        shift = ShiftConfig(base=self.config.synthetic_config())
        workload, hot = generate_shifting(shift, seed=self.seed)
        engine = self._engine("anu", workload=workload)
        anu = engine.run()
        r = int(shift.base.duration * shift.shift_at_fraction / self.config.tuning_interval)
        tune = [m for m in anu.movement if m.kind == "tune"]
        burst = [m.moves for m in tune if r < m.round_index <= r + 5]
        after = [m.moves for m in tune if m.round_index > r + 5]
        return {
            "anu": anu,
            "prescient": run_system("prescient", workload, self.config),
            "homes": [engine.policy.assignments()[name] for name in hot],
            "rates": (sum(burst) / max(1, len(burst)), sum(after) / max(1, len(after))),
        }


def _lat(result: ClusterResult) -> float:
    return result.aggregate_mean_latency


def _floor(results: Dict[Any, ClusterResult]) -> float:
    return min(map(_lat, results.values()))


def _round(result: ClusterResult, **kwargs: Any) -> float:
    conv = convergence_round(result, **kwargs)
    return math.inf if conv is None else conv


def _sanity(tag: str, known: Tuple[str, str] = ("", "")) -> Tuple[tuple, ...]:
    """The sanity contract's three checks of one workload's comparison:
    simple's slowest server is the weakest, ANU converges (its round is
    finite), prescient is within 1.25x of the best system."""
    return (
        (f"{tag}:simple-weakest-degrades", "==", lambda d: (max(
            d["simple"].per_server_mean_latency.items(), key=lambda kv: kv[1])[0], 0), known[0]),
        (f"{tag}:anu-converges", "<", lambda d: (_round(d["anu"]), math.inf)),
        (f"{tag}:prescient-near-best", "<=",
         lambda d: (_lat(d["prescient"]), _floor(d) * 1.25), known[1]),
    )


def _server0_growth(result: ClusterResult) -> Tuple[float, float]:
    """Server 0's last interval latency, and 5x its first."""
    values = result.server_latency[0].values()
    values = values[~np.isnan(values)]
    return values[-1], 5 * values[0]


def _spread_at_t0(result: ClusterResult) -> Tuple[float, float]:
    """The slowest server's first interval latency, and 50x the fastest's."""
    first = [v for v in (ts.values()[0] for ts in result.server_latency.values()) if v == v]
    return max(first), 50 * min(first)


def _busy(result: ClusterResult) -> List[float]:
    """Steady-state mean latency of every busy server but the weakest."""
    return [v for sid, v in steady_state_means(result).items() if sid != 0 and v == v]


def _misses(pairs) -> int:
    """How many ``(value, expected)`` pairs differ."""
    return sum(1 for value, expected in pairs if value != expected)


def _claims(section: str, run: str, *rows: tuple) -> Tuple[Claim, ...]:
    """Claims from ``(id, op, check[, known_failure])`` rows of one section and run."""
    return tuple(Claim(row[0], section, run, *row[1:]) for row in rows)


_ZIPF = "ROADMAP, Figure 4: under Zipf skew simple's worst server is 3"
_ITEM14 = "ROADMAP item 14: prescient trails VP on the trace"
_A = "Ablations"

#: Every claim of EXPERIMENTS.md, in the order of its sections.
CLAIMS: Tuple[Claim, ...] = (
    # The sanity contract: the trace shows the synthetic run's properties.
    *_claims("Figure 4", "fig5", *_sanity("synthetic")),
    *_claims("Figure 4", "fig4", *_sanity("trace", (_ZIPF, _ITEM14)),
        ("fig4-simple-imbalanced", ">", lambda d: (
            max(d["simple"].per_server_mean_latency.values()),
            10 * min(d["simple"].per_server_mean_latency.values()))),
        ("fig4-anu-beats-simple", "<", lambda d: (_lat(d["anu"]), _lat(d["simple"]))),
        ("fig4-prescient-at-floor", "<=", lambda d: (_lat(d["prescient"]), _floor(d) * 1.5)),
        ("fig4-anu-power9-serves-more-than-power3", ">",
         lambda d: (d["anu"].server_requests[4], d["anu"].server_requests[1]))),
    *_claims("Figure 5", "fig5",
        ("fig5-simple-server0-degrades", ">", lambda d: _server0_growth(d["simple"])),
        ("fig5-simple-server4-underused", "<", lambda d: (d["simple"].server_utilization[4], 0.6)),
        ("fig5-simple-backlog", ">", lambda d: (d["simple"].unfinished, 0)),
        ("fig5-prescient-balanced-at-t0", "<", lambda d: _spread_at_t0(d["prescient"])),
        ("fig5-virtual-balanced-at-t0", "<", lambda d: _spread_at_t0(d["virtual"])),
        ("fig5-anu-completes", "==", lambda d: (d["anu"].unfinished, 0)),
        ("fig5-anu-converges", "<=", lambda d: (_round(d["anu"], tolerance=3.0, min_quiet=2), 30)),
        ("fig5-anu-beats-simple", "<", lambda d: (_lat(d["anu"]), _lat(d["simple"])))),
    *_claims("Figure 6(a)", "fig5",
        ("fig6a-prescient-le-vp", "<=",
         lambda d: (_lat(d["prescient"]), _lat(d["virtual"]) * 1.05)),
        ("fig6a-prescient-le-anu", "<=", lambda d: (_lat(d["prescient"]), _lat(d["anu"]))),
        ("fig6a-anu-within-8x", "<=", lambda d: (_lat(d["anu"]), 8 * _lat(d["prescient"])))),
    *_claims("Figure 6(b)", "fig5",
        ("fig6b-server0-share", "<", lambda d: (d["anu"].request_share(0), 0.05)),
        ("fig6b-busy-servers", ">=", lambda d: (len(_busy(d["anu"])), 3)),
        ("fig6b-steady-state-jain", ">", lambda d: (jain_index(np.array(_busy(d["anu"]))), 0.5))),
    *_claims("Figure 7", "fig7",
        ("fig7-moves-per-round", "<", lambda d: (d.total_moves / max(1, d.rounds), 6.0)),
        ("fig7-front-loaded", ">=", lambda d: (d.front_loadedness, 0.1)),
        ("fig7-cumulative-share", "<", lambda d: (d.series.cumulative_work_share[-1],
                    d.total_moves / max(1, d.rounds) * max(1, d.rounds) * 5.0))),
    *_claims("Figure 8", "fig8",
        ("fig8-vp5-worse-than-vp50", ">", lambda d: (_lat(d.sweep[5]), _lat(d.sweep[50]))),
        ("fig8-fine-half-beats-coarse-half", "<",
         lambda d: tuple(np.mean([_lat(d.sweep[nv]) for nv in half])
                         for half in (DEFAULT_SWEEP[5:], DEFAULT_SWEEP[:5]))),
        ("fig8-state-is-vp-count", "==",
         lambda d: (_misses((r.shared_state_entries, nv) for nv, r in d.sweep.items()), 0)),
        ("fig8-vp50-near-prescient", "<=",
         lambda d: (_lat(d.sweep[50]), _lat(d.references["prescient"]) * 3.0)),
        ("fig8-anu-steady-state-in-band", "<=",
         lambda d: (float(np.mean(_busy(d.references["anu"]))), _lat(d.sweep[5]) * 4.0))),
    *_claims("Figure 3", "repartition",
        ("fig3-partitions-follow-formula", "==",
         lambda d: (_misses((p, required_partitions(k)) for k, p, _, _ in d[0]), 0)),
        ("fig3-fifth-server-doubles-to-16", "==",
         lambda d: (next(row[1:3] for row in d[0] if row[0] == 5), (16, True))),
        ("fig3-admissions-stay-local", "<=", lambda d: (max(row[3] for row in d[0]), 200 // 2)),
        ("fig3-doubling-moves-no-load", "<", lambda d: (max(d[1]), 1e-9))),
    *_claims(_A, "averaging",
        ("a1-every-rule-beats-simple", "<",
         lambda d: (max(_lat(d[r]) for r in RULES), _lat(d["simple"]) / 2)),
        ("a1-every-rule-completes", "==", lambda d: (sum(d[r].unfinished for r in RULES), 0)),
        ("a1-rules-within-10x", "<",
         lambda d: (max(_lat(d[r]) for r in RULES), 10 * min(_lat(d[r]) for r in RULES)))),
    *_claims(_A, "interval",
        *((f"a2-{i:g}s-completes", ">=", lambda d, i=i: (d[i].completed, 0.98 * d[i].submitted))
          for i in INTERVALS),
        ("a2-30s-moves-per-round", ">=", lambda d: tuple(  # moves per round; 0.5x at 120 s
            d[i].total_moves / max(1, sum(m.kind == "tune" for m in d[i].movement)) * f
            for i, f in ((30.0, 1), (120.0, 0.5)))),
        ("a2-120s-near-best", "<=", lambda d: (_lat(d[120.0]), _floor(d) * 3.0))),
    *_claims(_A, "homogeneous",
        ("a3-simple-hashing-misplaces-load", ">",
         lambda d: (d["simple"][1].max(), 1.05 * d["simple"][1].mean())),
        ("a3-anu-latency-no-worse", "<=",
         lambda d: (_lat(d["anu"][0]), _lat(d["simple"][0]) * 1.5)),
        ("a3-anu-tighter-request-spread", "<=", lambda d: tuple(  # max / mean requests
            q.max() / q.mean() + extra
            for q, extra in ((d["anu"][1], 0), (d["simple"][1], 0.05))))),
    *_claims(_A, "churn",
        ("a4-fail-then-recover", "==", lambda d: ([m.kind for m in d[1]], ["fail", "recover"])),
        ("a4-fail-moves-some", ">", lambda d: (d[1][0].moves, 0)),
        ("a4-fail-moves-local", "<", lambda d: (d[1][0].moves, 50 * 0.6)),
        ("a4-recover-moves-some", ">", lambda d: (d[1][1].moves, 0)),
        ("a4-recover-moves-local", "<", lambda d: (d[1][1].moves, 50 * 0.6)),
        ("a4-service-continuity", ">=", lambda d: (d[0].completed, 0.97 * d[0].submitted)),
        ("a4-recovered-server-serves", ">", lambda d: (d[0].server_requests[2], 0))),
    *_claims(_A, "state",
        *((f"a5-anu-state-{k}-servers", "<=", lambda by, k=k: (by[(k, "anu")], 2 * k))
          for k, _ in STATE_SIZES),
        ("a5-vp-state-is-5k", "==",
         lambda by: (_misses((by[(k, "virtual")], 5 * k) for k, _ in STATE_SIZES), 0)),
        ("a5-table-state-is-m", "==",
         lambda by: (_misses((by[(k, "table")], m) for k, m in STATE_SIZES), 0)),
        ("a5-simple-le-anu-lt-vp-lt-table", "==",
         lambda by: (_misses((by[(k, "simple")] <= by[(k, "anu")] < by[(k, "virtual")]
                              < by[(k, "table")], True) for k, _ in STATE_SIZES), 0)),
        ("a5-anu-growth-linear-in-k", "<=",
         lambda by: (by[(1_000, "anu")] / by[(5, "anu")], (1_000 / 5) * 2))),
    *_claims(_A, "balance",
        *((f"a6-dchoice-max-load-m{m}-n{n}", "<=",
           lambda d, c=(m, n): (max(x.max_load for x in d[c]["multi"]),
                                anu_balance_bound(*c) + 4))
          for m, n in BALANCE_CASES),
        *((f"a6-{s}-above-dchoice-m{m}-n{n}", ">=", lambda d, c=(m, n), s=s: tuple(
            np.mean([x.max_load for x in d[c][t]]) for t in (s, "multi")))
          for m, n in BALANCE_CASES for s in ("single", "uniform")),
        ("a6-overshoot-grows-with-n", ">", lambda d: tuple(
            np.mean([x.overshoot for x in d[c]["uniform"]]) for c in ((1_024, 32), (64, 8))))),
    *_claims(_A, "lookup_probes",
        ("a7-lookup-probes-above-1.5", ">", lambda p: (p, 1.5 * 1_000)),
        ("a7-lookup-probes-below-3", "<", lambda p: (p, 3.0 * 1_000))),
    *_claims(_A, "vp_granularity",
        ("a8-coarse-vps-underperform", ">", lambda d: (_lat(d["vp5"]), 2.0 * _lat(d["prescient"]))),
        ("a8-fine-vps-at-floor", "<=", lambda d: (_lat(d["vp50"]), _lat(d["prescient"]) * 1.6)),
        ("a8-vp15-beats-vp5", "<", lambda d: (_lat(d["vp15"]), _lat(d["vp5"])))),
    *_claims(_A, "weighted",
        ("a9-weighted-fixes-meltdown", "<", lambda d: (_lat(d["weighted"]), _lat(d["simple"]) / 3)),
        ("a9-weighted-finishes-more", "<",
         lambda d: (d["weighted"].unfinished, d["simple"].unfinished)),
        ("a9-weighted-state-is-k", "==",
         lambda d: (d["weighted"].shared_state_entries, len(PAPER_POWERS))),
        ("a9-weighted-moves-nothing", "==", lambda d: (d["weighted"].total_moves, 0)),
        ("a9-anu-steady-state-near-weighted", "<=",
         lambda d: (np.mean(_busy(d["anu"])), np.mean(_busy(d["weighted"])) * 4.0))),
    *_claims(_A, "chord",
        ("a10-chord-state-is-log2n", "==",
         lambda d: (_misses((d[n][0], math.ceil(math.log2(n))) for n in RING_SIZES), 0)),
        *((f"a10-chord{n}-mean-hops", "<=", lambda d, n=n: (d[n][1], math.log2(n) + 2))
          for n in RING_SIZES),
        *((f"a10-chord{n}-state-below-table", "<", lambda d, n=n: (d[n][0], n / 4))
          for n in RING_SIZES),
        ("a10-anu-mean-probes", "<", lambda d: (d["anu"][1], 3.0)),
        ("a10-anu-state", "<=", lambda d: (d["anu"][0], 12))),
    *_claims(_A, "seeds",
        *((f"a11-seed{s}-anu-beats-simple", "<",
           lambda d, s=s: (_lat(d[s]["anu"]), _lat(d[s]["simple"]))) for s in SEEDS),
        *((f"a11-seed{s}-prescient-at-floor", "<=",
           lambda d, s=s: (_lat(d[s]["prescient"]), _floor(d[s]) * 1.5)) for s in SEEDS),
        ("a11-anu-completes", "==", lambda d: (sum(d[s]["anu"].unfinished for s in SEEDS), 0)),
        ("a11-server0-share", "<",
         lambda d: (max(d[s]["anu"].request_share(0) for s in SEEDS), 0.06))),
    *_claims(_A, "cache_sweep",
        ("a12-every-cost-completes", "==", lambda d: (sum(r.unfinished for r, _ in d.values()), 0)),
        ("a12-flush-charged", ">", lambda d: (d["paper-ish"][1].total_flush_work, 0)),
        ("a12-free-charges-nothing", "==", lambda d: (d["free"][1].total_flush_work, 0.0)),
        ("a12-punitive-within-10x-free", "<=",
         lambda d: (_lat(d["punitive"][0]), _lat(d["free"][0]) * 10.0)),
        ("a12-free-near-paper-ish", "<=",
         lambda d: (_lat(d["free"][0]), _lat(d["paper-ish"][0]) * 1.5))),
    *_claims(_A, "hotspot",
        ("a13-moves-burst-after-shift", ">=", lambda d: d["rates"]),
        ("a13-anu-completes", "==", lambda d: (d["anu"].unfinished, 0)),
        ("a13-hot-sets-on-capable-servers", ">=",
         lambda d: (min(PAPER_POWERS[sid] for sid in d["homes"]), 5.0)),
        ("a13-prescient-floor", "<=", lambda d: (_lat(d["prescient"]), _lat(d["anu"])))),
)


def evaluate(claim: Claim, runs: Any) -> Tuple[Any, Any, bool]:
    """``(measured, bound, holds)`` of ``claim`` over ``runs``."""
    measured, bound = claim.check(getattr(runs, claim.run))
    return measured, bound, bool(OPS[claim.op](measured, bound))


def _show(value: Any) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def report(claims: Sequence[Claim] = CLAIMS, runs: Any = None) -> int:
    """Print one row per claim; 1 when a claim fails or a known failure holds."""
    runs = Runs() if runs is None else runs
    rows, wrong = [], []
    for claim in claims:
        measured, bound, holds = evaluate(claim, runs)
        verdict = "ok" if holds else "FAIL"
        if claim.known_failure:
            verdict = "HOLDS: drop the mark" if holds else f"known failure ({claim.known_failure})"
        if holds == bool(claim.known_failure):
            wrong.append(claim.id)
        shown = {"measured": _show(measured), "bound": f"{claim.op} {_show(bound)}"}
        rows.append({"claim": claim.id, "section": claim.section, **shown, "verdict": verdict})
    print(ascii_table(rows))
    known = sum(1 for claim in claims if claim.known_failure)
    print(f"\n{len(claims)} claims, {known} of them known failures")
    if wrong:
        print(f"wrong: {', '.join(wrong)}")
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """The ``claims`` subcommand: every claim at seed 1, full paper scale."""
    argparse.ArgumentParser(
        prog="python -m repro.experiments claims",
        description="Check every claim of EXPERIMENTS.md at seed 1 and full paper scale.",
    ).parse_args(argv)
    t0 = time.time()
    code = report()
    print(f"\n[done in {time.time() - t0:.1f}s]", file=sys.stderr)
    return code
