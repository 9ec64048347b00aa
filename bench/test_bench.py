"""Smoke tests of the benchmark itself (not part of the tier-1 suite).

    python -m pytest bench -q

One tiny-size traced run of all five workloads checks what the driver
relies on: the emitted metric names are exactly those of
``BENCHMARK.json``, the stage ledger covers the wall, the result line has
the contract's shape. The rest checks the tracer restores every binding
and that ``compare.py`` flags a synthetic regression past a bound.
"""

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import compare, layers  # noqa: E402
from bench.trace import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def run_bench(tmp_path, trace):
    out = tmp_path / f"result-{trace}.json"
    proc = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--seed", "3", "--scale", "0.02", "--repeats", "1", "--seconds", "0",
            "--trace", str(trace), "--out", str(out),
        ],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    return json.loads(out.read_text()), lines


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return run_bench(tmp_path_factory.mktemp("traced"), trace=1)


def test_metric_names_are_those_of_the_spec(traced):
    payload, lines = traced
    assert list(payload["workloads"]) == WORKLOADS
    for name, block in payload["workloads"].items():
        assert set(block["metrics"]) == END_TO_END | PER_LAYER, name
        assert block["correct"], block["problems"]
    for name in END_TO_END | PER_LAYER | set(WORKLOADS):
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_result_lines_have_the_contract_shape(traced, tmp_path):
    _, lines = traced
    assert len(lines) == len(WORKLOADS)
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == PER_LAYER
        assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    _, untraced_lines = run_bench(tmp_path, trace=0)
    for line in untraced_lines:
        assert set(line["metrics"]) == END_TO_END
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_stage_ledger_covers_the_wall(traced):
    payload, _ = traced
    for name, block in payload["workloads"].items():
        for record in block["records"]:
            covered = sum(record["stages"].values())
            assert abs(covered - record["wall_s"]) <= 0.05 * record["wall_s"], name
            assert 0 < record["setup_s"] < record["wall_s"], name
        assert block["stage_ledger"]["layers"], name


def test_layers_that_do_not_run_read_zero(traced):
    payload, _ = traced
    value = lambda w, m: payload["workloads"][w]["metrics"][m]["value"]  # noqa: E731
    for workload in WORKLOADS:
        if workload != "chaos_churn":
            assert value(workload, "faults.events_applied") == 0
        if workload != "service_saturate":
            assert value(workload, "service.locator.locates") == 0
    assert value("chaos_churn", "faults.events_applied") > 0
    assert value("paper_scalar", "core.hashing.digests") == 0
    assert value("scale_place", "core.hashing.digests") > 0
    assert value("service_saturate", "core.vector.drained_requests") == 0
    assert value("service_saturate", "service.client.exec_rtt_us") > 0


def test_wrappers_are_removed_after_a_traced_pass():
    import repro.core.vector as core_vector
    import repro.policies.vector as policies_vector
    from repro.core.hashing import HashFamily
    from repro.service.client import HardenedServiceClient

    watched = [
        (HashFamily, "batch_offsets"),
        (core_vector.SegmentTable, "from_layout"),
        (core_vector, "batched_locate"),
        (policies_vector, "batched_locate"),
        (policies_vector.VectorANU, "rebalance"),
        (HardenedServiceClient, "locate"),
    ]
    before = [owner.__dict__[attr] for owner, attr in watched]
    tracer = Tracer()
    layers.install(tracer)
    layers.install_client(tracer)
    during = [owner.__dict__[attr] for owner, attr in watched]
    assert all(a is not b for a, b in zip(before, during))
    # Bound where it is looked up: the importing module sees the wrapper.
    assert policies_vector.batched_locate is core_vector.batched_locate
    tracer.uninstall()
    assert all(a is b for a, b in zip(before, (o.__dict__[k] for o, k in watched)))


def test_tracer_self_time_excludes_children():
    import types

    tracer = Tracer()
    module = types.ModuleType("repro_fake")
    sys.modules["repro_fake"] = module
    try:
        module.inner = lambda: sum(range(20000))
        module.outer = lambda: [module.inner() for _ in range(5)]
        tracer.wrap_function(module, "inner", "inner")
        tracer.wrap_function(module, "outer", "outer")
        module.outer()
        tracer.uninstall()
    finally:
        del sys.modules["repro_fake"]
    assert tracer.calls("inner") == 5 and tracer.calls("outer") == 1
    assert tracer.total_s("outer") == pytest.approx(
        tracer.self_s("outer") + tracer.self_s("inner")
    )
    assert [s[3] for s in tracer.spans if s[0] == "inner"] == [0] * 5


def _worsened(payload, workload, metric, factor):
    changed = copy.deepcopy(payload)
    entry = changed["workloads"][workload]["metrics"][metric]
    entry["value"] *= factor
    entry["samples"] = [factor * s for s in entry["samples"]]
    return changed


def test_compare_flags_a_synthetic_regression(traced):
    payload, _ = traced
    assert not any(r[-1] == "REGRESSION" for r in compare.compare(payload, payload, SPEC))
    # 20 % more memory is past the 10 % bound; the time-derived bounds
    # are 25 %, so 20 % more wall is not a regression but 30 % is.
    for metric, factor, flagged in (
        ("peak_rss_mb", 1.2, True), ("wall_s", 1.2, False), ("wall_s", 1.3, True)
    ):
        rows = compare.compare(payload, _worsened(payload, "scale_place", metric, factor), SPEC)
        found = [(r[0], r[1]) for r in rows if r[-1] == "REGRESSION"]
        assert found == ([("scale_place", metric)] if flagged else []), (metric, factor)
    # A spread wider than the bound hides a change of that size.
    noisy = copy.deepcopy(payload)
    noisy["workloads"]["scale_drive"]["metrics"]["wall_s"]["samples"] = [1.0, 1.5, 2.0]
    rows = compare.compare(noisy, noisy, SPEC)
    assert [r[-1] for r in rows if r[:2] == ["scale_drive", "wall_s"]] == ["unresolved"]
