#!/usr/bin/env python3
"""The one benchmark command: all three tiers, end to end and per layer.

    python3 bench/run.py --seed S                       # all five workloads
    python3 bench/run.py --workload scale_place --seed S --seconds 12 --trace 0

Every pass of a workload runs in a fresh process (``bench/onepass.py``):
cold caches are what users pay. A run repeats passes until ``--seconds``
have gone by (at least ``--repeats`` of them) and reports, per metric,
the mean of the middle half of the passes (:func:`typical`), with the
per-pass samples kept in the ``--out`` JSON. With ``--trace 1`` the
run alternates untraced and traced passes: end-to-end numbers always
come from the untraced ones, per-layer numbers from the traced ones, and
the difference between the two walls is ``trace.overhead_share``.

For each workload the command prints ``name  value  unit`` for every
metric it measured, then one JSON line
``{"correct", "attempted", "failed", "metrics"}`` whose metrics are the
end-to-end set (``--trace 0``) or the per-layer set (``--trace 1``) of
``BENCHMARK.json``. It exits non-zero on any correctness failure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Kernel events the scalar engine spends per request — the unit
#: ``BENCH_scale.json`` counts in. On the service it happens to be the
#: three messages of one logical request (locate, exec, report).
#: Throughput counts the requests *driven*: how many of them are still
#: queued at the simulated horizon depends on the seed's placement luck,
#: not on how fast the program ran.
EVENTS_PER_REQUEST = 3
#: The untraced stage timers must cover this share of ``wall_s``.
LEDGER_TOLERANCE = 0.05
#: Above this, tracing disturbed the run enough to distrust its numbers.
MAX_TRACE_OVERHEAD = 0.15
#: A pass that runs longer than this is killed (the driver allows 180 s
#: for the whole run).
PASS_TIMEOUT_S = 150


def typical(samples: List[float]) -> float:
    """The interquartile mean: the mean of the middle half of the samples.

    A shared box runs this code at two speeds a quarter apart, each for
    seconds at a time. The median of a run's passes jumps from one speed
    to the other when their shares cross one half; the mean moves with a
    single stalled pass. The mean of the middle half ignores stalls,
    equals the median while one speed dominates, and slides between the
    two speeds when neither does (``bench/README.md``, "Steadiness").
    """
    ordered = sorted(samples)
    trim = len(ordered) // 4
    return statistics.fmean(ordered[trim : len(ordered) - trim])


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_pass(workload: str, seed: int, scale: float, trace: int) -> Dict[str, Any]:
    """One pass in a fresh interpreter; returns its record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "bench.onepass",
            "--workload", workload,
            "--seed", str(seed),
            "--scale", repr(scale),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end_of(record: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics of one untraced pass."""
    if "service" in record:
        req_per_s = record["service"]["req_per_s"]
    else:
        req_per_s = record["attempted"] / record["stages"]["drive"]
    return {
        "wall_s": record["wall_s"],
        "setup_s": record["setup_s"],
        "wall_events_per_s": EVENTS_PER_REQUEST * record["attempted"] / record["wall_s"],
        "req_per_s": req_per_s,
        "peak_rss_mb": record["peak_rss_mb"],
    }


def pass_problems(record: Dict[str, Any], reference: Dict[str, Any]) -> List[str]:
    """What is wrong with one pass (empty when it is correct)."""
    problems = [f"check failed: {name}" for name, ok in record["checks"].items() if not ok]
    if record["failed"]:
        problems.append(f"{record['failed']} requests lost, failed or violating an invariant")
    if record["attempted"] < 1:
        problems.append("nothing attempted")
    covered = sum(record["stages"].values())
    if abs(covered - record["wall_s"]) > LEDGER_TOLERANCE * record["wall_s"]:
        problems.append(
            f"stage ledger sums to {covered:.3f} s, wall is {record['wall_s']:.3f} s"
        )
    if record["exact"] != reference["exact"]:
        problems.append("simulated results differ between passes of the same seed")
    return problems


def run_workload(name: str, args: argparse.Namespace, spec: Dict[str, Any]) -> Dict[str, Any]:
    """Measure one workload; returns its block of the ``--out`` JSON."""
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while len(untraced) < args.repeats or time.perf_counter() - started < args.seconds:
        untraced.append(run_pass(name, args.seed, args.scale, 0))
        if args.trace:
            traced.append(run_pass(name, args.seed, args.scale, 1))

    problems: List[str] = []
    for record in untraced + traced:
        problems.extend(pass_problems(record, untraced[0]))

    samples: Dict[str, List[float]] = {}
    for record in untraced:
        for metric, value in end_to_end_of(record).items():
            samples.setdefault(metric, []).append(value)
    if traced:
        for record in traced:
            for metric, value in record["layers"].items():
                samples.setdefault(metric, []).append(value)
        # Per-layer values that are end to end in kind (what a client of
        # the service sees) are read from the untraced passes, like every
        # end-to-end number.
        for metric in untraced[0]["untraced_layers"]:
            samples[metric] = [r["untraced_layers"][metric] for r in untraced]
        wall = typical(samples["wall_s"])
        traced_wall = typical([r["wall_s"] for r in traced])
        samples["trace.overhead_share"] = [(traced_wall - wall) / wall]

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {
        metric: {"value": typical(values), "unit": units[metric], "samples": values}
        for metric, values in samples.items()
    }
    overhead = metrics.get("trace.overhead_share")
    ledger = {
        stage: typical([r["stages"].get(stage, 0.0) for r in untraced])
        for stage in ("import", "workload", "placement", "drive", "report")
    }
    return {
        "correct": not problems,
        "problems": sorted(set(problems)),
        "attempted": sum(r["attempted"] for r in untraced),
        "failed": sum(r["failed"] for r in untraced),
        "passes": len(untraced),
        "traced_passes": len(traced),
        "metrics": metrics,
        "traced_numbers_reliable": overhead is None or overhead["value"] < MAX_TRACE_OVERHEAD,
        "stage_ledger": {
            "wall_s": metrics["wall_s"]["value"],
            "stages": ledger,
            # Traced self time of each layer, under the stage it ran in.
            "layers": traced[-1]["stage_layers"] if traced else None,
        },
        "exact": untraced[0]["exact"],
        "records": untraced + traced,
    }


def result_line(block: Dict[str, Any], names: List[str]) -> str:
    """The contract's last line: exactly the named metrics, value and unit."""
    return json.dumps(
        {
            "correct": block["correct"],
            "attempted": block["attempted"],
            "failed": block["failed"],
            "metrics": {
                n: {"value": block["metrics"][n]["value"], "unit": block["metrics"][n]["unit"]}
                for n in names
            },
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=1, help="every input is generated from it")
    parser.add_argument(
        "--workload", action="append", help="repeatable; default: every workload in BENCHMARK.json"
    )
    parser.add_argument("--seconds", type=float, default=None, help="how long one run measures")
    parser.add_argument("--repeats", type=int, default=None, help="least number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink sizes (smoke tests)")
    parser.add_argument("--out", default=str(BENCH_DIR / "out" / "result.json"))
    args = parser.parse_args(argv)

    spec = load_spec()
    if not (ROOT / "src" / "repro").is_dir():
        print("bench/run.py: no src/repro beside bench/ — nothing to measure", file=sys.stderr)
        return 2
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    for name in workloads:
        if name not in known:
            parser.error(f"unknown workload {name!r}; BENCHMARK.json has {known}")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.repeats is None:
        args.repeats = 1 if args.trace else 3
    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[kind]]

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = {"seed": args.seed, "scale": args.scale, "trace": args.trace, "workloads": {}}
    for name in workloads:
        block = run_workload(name, args, spec)
        payload["workloads"][name] = block
        print(f"# {name}: {block['passes']} passes" + (
            f" + {block['traced_passes']} traced" if args.trace else ""))
        for metric, entry in block["metrics"].items():
            print(f"{metric:<36} {entry['value']:>16.6g}  {entry['unit']}")
        for problem in block["problems"]:
            print(f"INCORRECT {name}: {problem}", file=sys.stderr)
        if not block["traced_numbers_reliable"]:
            print(f"WARNING {name}: tracing overhead above {MAX_TRACE_OVERHEAD:.0%}; "
                  "per-layer numbers are unreliable", file=sys.stderr)
        missing = [n for n in names if n not in block["metrics"]]
        if missing:
            raise RuntimeError(f"{name} did not measure {missing}")
        with open(out, "w") as fh:
            json.dump(payload, fh, indent=1)
        print(result_line(block, names), flush=True)
    return 0 if all(b["correct"] for b in payload["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
