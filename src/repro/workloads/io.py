"""Trace-file persistence.

A minimal text format so that (a) generated workloads can be archived
alongside experiment results, and (b) *real* traces — converted to this
format — can be dropped in for the trace-driven figures, which is how
the original evaluation consumed DFSTrace.

Format: UTF-8 text, ``#``-prefixed header lines carrying metadata,
then one request per line: ``arrival<TAB>fileset<TAB>work``.

::

    # repro-trace v1
    # name: synthetic(seed=0)
    # duration: 12000.0
    12.5034	/fs/0003	2.7311
    ...
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List, TextIO, Union

from ..cluster.fileset import FileSetCatalog
from .synthetic import Workload

__all__ = ["save_trace", "load_trace", "TRACE_MAGIC"]

TRACE_MAGIC = "# repro-trace v1"


def save_trace(workload: Workload, path: Union[str, Path, TextIO]) -> None:
    """Write ``workload`` to ``path`` in the repro-trace format."""
    if hasattr(path, "write"):
        _write(workload, path)  # type: ignore[arg-type]
    else:
        with open(path, "w", encoding="utf-8") as fh:
            _write(workload, fh)


def _write(workload: Workload, fh: TextIO) -> None:
    fh.write(f"{TRACE_MAGIC}\n")
    fh.write(f"# name: {workload.name}\n")
    fh.write(f"# duration: {workload.duration!r}\n")
    names = workload.catalog.names
    for arrival, i, work in zip(
        workload.arrivals.tolist(), workload.fs_idx.tolist(), workload.works.tolist()
    ):
        fh.write(f"{arrival!r}\t{names[i]}\t{work!r}\n")


def load_trace(path: Union[str, Path, TextIO]) -> Workload:
    """Read a repro-trace file back into a :class:`Workload`.

    The file-set catalog is reconstructed from the requests themselves
    (total work and request count per file set), which is exactly the
    information a placement policy is entitled to derive from a trace.
    """
    if hasattr(path, "read"):
        return _read(path)  # type: ignore[arg-type]
    with open(path, "r", encoding="utf-8") as fh:
        return _read(fh)


def _read(fh: TextIO) -> Workload:
    first = fh.readline().rstrip("\n")
    if first != TRACE_MAGIC:
        raise ValueError(
            f"not a repro-trace file (expected {TRACE_MAGIC!r}, got {first!r})"
        )
    name = "unnamed-trace"
    duration: float | None = None
    arrivals: List[float] = []
    works: List[float] = []
    filesets: List[str] = []
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for lineno, line in enumerate(fh, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("name:"):
                name = body[len("name:"):].strip()
            elif body.startswith("duration:"):
                duration = float(body[len("duration:"):].strip())
                if not math.isfinite(duration):
                    raise ValueError(f"line {lineno}: non-finite duration {duration}")
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 3 tab-separated fields")
        arrival, fileset, work = float(parts[0]), parts[1], float(parts[2])
        if not (0 <= arrival < math.inf and 0 < work < math.inf):
            raise ValueError(f"line {lineno}: invalid arrival/work {arrival}/{work}")
        arrivals.append(arrival)
        works.append(work)
        filesets.append(fileset)
        totals[fileset] = totals.get(fileset, 0.0) + work
        counts[fileset] = counts.get(fileset, 0) + 1
    if not arrivals:
        raise ValueError("trace contains no requests")
    if duration is None:
        duration = max(arrivals) * 1.001
    names = sorted(totals)
    index = {n: i for i, n in enumerate(names)}
    catalog = FileSetCatalog(
        names, [totals[n] for n in names], [counts[n] for n in names]
    )
    return Workload(
        name=name,
        catalog=catalog,
        arrivals=arrivals,
        works=works,
        fs_idx=[index[f] for f in filesets],
        duration=duration,
    )
