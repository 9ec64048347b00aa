#!/usr/bin/env python3
"""Schema guard for the committed ``BENCH_*.json`` artifacts.

Run from the repository root (CI does)::

    python tools/check_bench_schema.py            # every committed bench
    python tools/check_bench_schema.py BENCH_scale.json [more...]

Validates each benchmark artifact against the schema the code writes
today: top-level keys, ``schema_version`` where the bench carries one,
and the per-row key set and value types — one schema table per bench
(``scale``, ``chaos_scale``, ``control``, ``robustness``,
``service``).
The point is
drift detection — if an experiment module changes its payload shape,
this gate fails until both the artifact and (deliberately) this checker
are updated.

The two chaos benches also get semantic gates: ``invariant_violations``
and ``requests_lost`` must be zero in every row — a committed bench
that recorded a violation is a red build, not a data point. The live
``service`` bench gets the same treatment at the top level:
``requests_lost`` must be 0 and the conservation / convergence /
digital-twin verdicts (``conserved``, ``classified``, ``converged``,
``twin_ok``) must all be true.

Exit status 0 when clean; 1 with one line per violation otherwise.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

NoneType = type(None)

#: Must match ``repro.experiments.scale.SWEEP.schema_version``.
SCALE_SCHEMA_VERSION = 3
#: Must match ``repro.experiments.chaos_scale.SWEEP.schema_version``.
CHAOS_SCALE_SCHEMA_VERSION = 3
#: Must match ``repro.experiments.control.SWEEP.schema_version``.
CONTROL_SCHEMA_VERSION = 3
#: Must match ``repro.service.bench.SCHEMA_VERSION``.
SERVICE_SCHEMA_VERSION = 1

_NUM = (int, float)

#: RobustnessReport.to_dict() rows, shared by both chaos benches.
_ROBUSTNESS_ROW = {
    "seed": int,
    "fault_rate": _NUM + (NoneType,),
    "faults_injected": int,
    "faults_skipped": int,
    "server_downtime_s": _NUM,
    "unavailability": _NUM,
    "detection_latencies_s": list,
    "detection_latency_bound_s": _NUM,
    "detection_within_bound": bool,
    "requests_injected": int,
    "requests_completed": int,
    "requests_failed": int,
    "requests_in_flight": int,
    "requests_in_flight_queued": int,
    "requests_in_flight_backoff": int,
    "requests_in_flight_dispatch": int,
    "requests_lost": int,
    "retries_per_request": _NUM,
    "redirects": int,
    "timeouts": int,
    "invariant_checks": int,
    "invariant_violations": int,
    "consistency_recovery_s": _NUM + (NoneType,),
    "mean_latency_s": _NUM,
    "fingerprint": str,
}

BENCHES = {
    "scale": {
        "default_path": "BENCH_scale.json",
        "schema_version": SCALE_SCHEMA_VERSION,
        "top": {
            "bench": str,
            "schema_version": int,
            "seed": int,
            "cpu_count": int,
            "workers": int,
            "policies": list,
            "rows": list,
        },
        "row": {
            "policy": str,
            "n_servers": int,
            "n_filesets": int,
            "n_requests": int,
            "completed": int,
            "duration_s": _NUM,
            "tuning_interval_s": _NUM,
            "workload_seconds": _NUM,
            "placement_seconds": _NUM,
            "setup_seconds": _NUM,
            "drive_seconds": _NUM,
            "drive_seconds_all": list,
            "events": int,
            "events_per_sec": _NUM,
            "mean_latency": _NUM,
            "p99_latency": _NUM,
            "latency_cov": _NUM,
            "jain_index": _NUM,
            "total_sheds": int,
            "relocated": int,
            "relocate_fraction": _NUM,
            "reshuffle_seconds": _NUM,
        },
        "finite": ("events_per_sec",),
        "unit": ("relocate_fraction",),
    },
    "chaos_scale": {
        "default_path": "BENCH_chaos_scale.json",
        "schema_version": CHAOS_SCALE_SCHEMA_VERSION,
        "top": {
            "bench": str,
            "schema_version": int,
            "seed": int,
            "cpu_count": int,
            "workers": int,
            "policies": list,
            "detection_latency_bound_s": _NUM,
            "heartbeat": dict,
            "rows": list,
        },
        "row": {
            **_ROBUSTNESS_ROW,
            "policy": str,
            "n_servers": int,
            "n_filesets": int,
            "n_requests": int,
            "duration_s": _NUM,
            "tuning_interval_s": _NUM,
            "workload_seconds": _NUM,
            "placement_seconds": _NUM,
            "setup_seconds": _NUM,
            "drive_seconds": _NUM,
            "failure_declarations": int,
            "recovery_declarations": int,
            "total_sheds": int,
            "relocated": int,
            "relocate_fraction": _NUM,
            "reshuffle_seconds": _NUM,
        },
        "zero": ("invariant_violations", "requests_lost"),
        "unit": ("relocate_fraction",),
    },
    "control": {
        "default_path": "BENCH_control.json",
        "schema_version": CONTROL_SCHEMA_VERSION,
        "top": {
            "bench": str,
            "schema_version": int,
            "seed": int,
            "cpu_count": int,
            "workers": int,
            "baseline_controller": str,
            "controllers": list,
            "scenarios": list,
            "feedback_wins": list,
            "rows": list,
        },
        "row": {
            "controller": str,
            "scenario": str,
            "mode": str,
            "n_servers": int,
            "n_filesets": int,
            "n_requests": int,
            "completed": int,
            "duration_s": _NUM,
            "tuning_interval_s": _NUM,
            "rounds": int,
            "convergence_round": (int, NoneType),
            "convergence_time_s": _NUM + (NoneType,),
            "oscillation": _NUM,
            "mean_latency": _NUM,
            "p99_latency": _NUM,
            "latency_cov": _NUM,
            "jain_index": _NUM,
            "total_sheds": int,
            # Paper-mode rows record null: the scalar adapter carries
            # no relocation ledger (uninstrumented ≠ zero relocations).
            "relocated": (int, NoneType),
            "relocate_fraction": _NUM + (NoneType,),
            "reshuffle_seconds": _NUM + (NoneType,),
            "setup_seconds": _NUM,
            "drive_seconds": _NUM,
        },
        "unit": ("relocate_fraction",),
        "finite": (
            "oscillation",
            "mean_latency",
            "p99_latency",
            "latency_cov",
            "jain_index",
        ),
        # The acceptance bar for the controller family: at least one
        # feedback controller must beat the multiplicative baseline on
        # convergence or oscillation somewhere in the sweep.
        "nonempty": ("feedback_wins",),
    },
    "robustness": {
        "default_path": "BENCH_robustness.json",
        "schema_version": None,
        "top": {
            "bench": str,
            "seed": int,
            "scale": _NUM,
            "detection_latency_bound_s": _NUM,
            "heartbeat": dict,
            "retry": dict,
            "rows": list,
        },
        "row": _ROBUSTNESS_ROW,
        "zero": ("invariant_violations", "requests_lost"),
    },
    "service": {
        "default_path": "BENCH_service.json",
        "schema_version": SERVICE_SCHEMA_VERSION,
        "top": {
            "bench": str,
            "schema_version": int,
            "version": str,
            "profile": str,
            "seed": int,
            "clients": int,
            "epoch_seconds": _NUM,
            "duration_s": _NUM,
            "time_scale": _NUM,
            "n_servers": int,
            "server_powers": dict,
            "n_filesets": int,
            "requests_injected": int,
            "requests_completed": int,
            "requests_failed": int,
            "requests_lost": int,
            "conserved": bool,
            "classified": bool,
            "retries": int,
            "redirects": int,
            "timeouts": int,
            "requests_per_sec": _NUM,
            "mean_latency_s": _NUM + (NoneType,),
            "p50_latency_s": _NUM + (NoneType,),
            "p99_latency_s": _NUM + (NoneType,),
            "epochs": int,
            "convergence_epochs": (int, NoneType),
            "converged": bool,
            "locates": int,
            "latency_samples": int,
            "twin": dict,
            "twin_ok": bool,
            "rows": list,
        },
        "row": {
            "epoch": int,
            "start_s": _NUM,
            "end_s": _NUM,
            "completed": int,
            "requests_per_sec": _NUM,
            "mean_latency_s": _NUM + (NoneType,),
            "p99_latency_s": _NUM + (NoneType,),
            "average_latency_s": _NUM + (NoneType,),
            "movement_l1": _NUM,
            "moved_filesets": int,
        },
        "finite": ("requests_per_sec",),
        "unit": ("movement_l1",),
        # A committed live run must account for every request and both
        # twin replays must be inside tolerance — else it's a red build.
        "zero_top": ("requests_lost",),
        "true_top": ("conserved", "classified", "converged", "twin_ok"),
    },
}


def identify_bench(payload: object) -> str | None:
    """Which schema table a parsed payload claims to follow."""
    if not isinstance(payload, dict):
        return None
    bench = payload.get("bench")
    if isinstance(bench, str) and bench in BENCHES:
        return bench
    return None


def _typename(typ) -> str:
    if isinstance(typ, tuple):
        return "/".join(t.__name__ for t in typ)
    return typ.__name__


def _check_mapping(obj: dict, schema: dict, where: str, problems: list) -> None:
    """Key-set and value-type check of one object against one table."""
    for key, typ in schema.items():
        if key not in obj:
            problems.append(f"{where}: missing key {key!r}")
            continue
        value = obj[key]
        bool_expected = typ is bool or (isinstance(typ, tuple) and bool in typ)
        if not isinstance(value, typ) or (isinstance(value, bool) and not bool_expected):
            problems.append(
                f"{where}: {key!r} must be {_typename(typ)}, "
                f"got {type(value).__name__}"
            )
    extra = set(obj) - set(schema)
    if extra:
        problems.append(f"{where}: unexpected keys: {sorted(extra)}")


def check_payload(payload: object, bench: str | None = None) -> list[str]:
    """All schema violations in a parsed payload (empty = clean)."""
    if not isinstance(payload, dict):
        return [f"payload must be a JSON object, got {type(payload).__name__}"]
    bench = bench or identify_bench(payload)
    if bench is None:
        return [
            f"unrecognized bench payload (bench={payload.get('bench')!r}); "
            f"know {sorted(BENCHES)}"
        ]
    spec = BENCHES[bench]
    problems: list[str] = []
    _check_mapping(payload, spec["top"], "top-level", problems)
    if "bench" in spec["top"] and payload.get("bench") != bench:
        problems.append(f"bench must be {bench!r}, got {payload.get('bench')!r}")
    if spec["schema_version"] is not None and (
        payload.get("schema_version") != spec["schema_version"]
    ):
        problems.append(
            f"schema_version must be {spec['schema_version']}, "
            f"got {payload.get('schema_version')!r}"
        )
    for key in spec.get("finite", ()):
        value = payload.get(key)
        if isinstance(value, _NUM) and not math.isfinite(value):
            problems.append(f"top-level {key!r} must be finite, got {value}")
    for key in spec.get("nonempty", ()):
        if isinstance(payload.get(key), list) and not payload[key]:
            problems.append(f"top-level {key!r} must be non-empty")
    for key in spec.get("zero_top", ()):
        if key in payload and payload.get(key) != 0:
            problems.append(
                f"top-level {key!r} must be 0 in a committed bench, "
                f"got {payload.get(key)!r}"
            )
    for key in spec.get("true_top", ()):
        if key in payload and payload.get(key) is not True:
            problems.append(
                f"top-level {key!r} must be true in a committed bench, "
                f"got {payload.get(key)!r}"
            )
    rows = payload.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.append("rows must be a non-empty list")
        return problems
    policies = payload.get("policies")
    for i, row in enumerate(rows):
        where = f"rows[{i}]"
        if not isinstance(row, dict):
            problems.append(f"{where}: must be an object")
            continue
        _check_mapping(row, spec["row"], where, problems)
        if isinstance(policies, list) and row.get("policy") not in policies:
            problems.append(
                f"{where}: policy {row.get('policy')!r} not in payload policies"
            )
        for key in spec.get("finite", ()):
            value = row.get(key)
            if isinstance(value, _NUM) and not math.isfinite(value):
                problems.append(f"{where}: {key!r} must be finite, got {value}")
        for key in spec.get("zero", ()):
            if row.get(key) not in (0, None) and key in row:
                problems.append(
                    f"{where}: {key!r} must be 0 in a committed bench, "
                    f"got {row.get(key)!r}"
                )
        for key in spec.get("unit", ()):
            value = row.get(key)
            if isinstance(value, _NUM) and not (0.0 <= value <= 1.0):
                problems.append(
                    f"{where}: {key!r} must be within [0, 1], got {value!r}"
                )
    return problems


def check_file(path: Path) -> list[str]:
    """Load and validate one artifact; returns its violation lines."""
    if not path.exists():
        return ["not found"]
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [f"invalid JSON: {exc}"]
    return check_payload(payload)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        paths = [Path(arg) for arg in argv[1:]]
    else:
        paths = [Path(spec["default_path"]) for spec in BENCHES.values()]
    failed = 0
    for path in paths:
        problems = check_file(path)
        if problems:
            failed += len(problems)
            for line in problems:
                print(f"{path}: {line}", file=sys.stderr)
            continue
        payload = json.loads(path.read_text())
        bench = identify_bench(payload)
        rows = payload.get("rows")
        detail = f"{len(rows)} rows" if isinstance(rows, list) else "no rows"
        version = payload.get("schema_version", payload.get("version", "-"))
        print(f"bench schema OK: {path} [{bench}] ({detail}, schema {version})")
    if failed:
        print(f"\n{failed} schema violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
