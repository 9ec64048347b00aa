#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py``, metric by metric.

    python3 bench/compare.py A.json B.json

``A`` is the base (the parent commit, or the first set of runs of the
same code), ``B`` the candidate. For every workload both files hold and
every end-to-end metric of ``BENCHMARK.json`` one row is printed: both
values, how much worse ``B`` is as a share of ``A``'s value (negative
means better), the run-to-run spread, the bound, and a verdict:

``REGRESSION``  ``B``'s value is worse than ``A``'s by more than the bound;
``unresolved``  the spread between passes (distance between the quartiles,
                as a share of the median, the wider of the two sides)
                exceeds the bound, so "no change" cannot be told from a
                change of that size — unless every pass of ``B`` reads
                better than every pass of ``A``;
``ok``          neither.

Failures are compared too (``failed`` over ``attempted`` may not rise),
and a last row per workload says whether the seed-determined results
(fingerprints, completed counts, simulated statistics) are identical —
they must be for two runs of the same code at the same seed; a change
that alters placement on purpose makes them differ. Exit code 1 when any
row is a ``REGRESSION``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def spread_of(samples: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / abs(statistics.median(samples))


def judge(
    base: Dict[str, Any], cand: Dict[str, Any], better: str, bound: float
) -> Tuple[float, float, str]:
    """``(worse-by share, spread, verdict)`` for one metric on one workload.

    ``base`` and ``cand`` are the metric's entries in the two result
    files: the run's ``value`` and its per-pass ``samples``.
    """
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (cand["value"] - base["value"]) / abs(base["value"])
    spread = max(spread_of(base["samples"]), spread_of(cand["samples"]))
    if worse > bound:
        return worse, spread, "REGRESSION"
    all_better = max(sign * x for x in cand["samples"]) < min(sign * x for x in base["samples"])
    if spread > bound and not all_better:
        return worse, spread, "unresolved"
    return worse, spread, "ok"


def compare(base: Dict[str, Any], cand: Dict[str, Any], spec: Dict[str, Any]) -> List[List[str]]:
    """One row per (workload, end-to-end metric), plus failures and exactness."""
    rows = []
    for workload in base["workloads"]:
        if workload not in cand["workloads"]:
            continue
        a, b = base["workloads"][workload], cand["workloads"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ma, mb = a["metrics"][name], b["metrics"][name]
            worse, spread, verdict = judge(ma, mb, metric["better"], metric["bound"])
            rows.append([
                workload, name, f"{ma['value']:.6g}", f"{mb['value']:.6g}",
                f"{worse:+.1%}", f"{spread:.1%}", f"{metric['bound']:.0%}", verdict,
            ])
        share_a, share_b = a["failed"] / a["attempted"], b["failed"] / b["attempted"]
        rows.append([
            workload, "failed_share", f"{share_a:.6g}", f"{share_b:.6g}", "", "", "0%",
            "REGRESSION" if share_b > share_a else "ok",
        ])
        same = a["exact"] == b["exact"]
        rows.append([workload, "exact results", "", "", "", "", "",
                     "identical" if same else "differ"])
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        base = json.load(fh)
    with open(argv[1]) as fh:
        cand = json.load(fh)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    header = ["workload", "metric", "A", "B", "B worse by", "spread", "bound", "verdict"]
    rows = compare(base, cand, spec)
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 1 if any(r[-1] == "REGRESSION" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
