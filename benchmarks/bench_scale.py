"""Planet-scale sweep harness: emits ``BENCH_scale.json``.

A thin wrapper over ``python -m repro.experiments scale`` for people
who run benchmarks from this directory; identical flags, identical
artifact. Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_scale.py [--smoke] [--repeats N]

The full sweep drives the vectorized client path across three points
(5/100/1000 servers, up to 1M file sets and 20M requests) for every
policy in the quality comparison (ANU, bounded-load consistent
hashing, JSQ(d)); ``--smoke`` substitutes the seconds-sized CI points.
The artifact is schema-gated by ``tools/check_bench_schema.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.__main__ import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["scale", *sys.argv[1:]]))
