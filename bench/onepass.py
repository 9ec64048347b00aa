"""One pass of one workload, in a process of its own.

``run.py`` starts ``python -m bench.onepass`` once per pass, from the
checkout root with ``src`` on ``PYTHONPATH``, so every pass pays what a
user pays: interpreter start, imports, cold caches. The clock starts on
the first line below, before anything heavy is imported, and the pass
reports

* ``wall_s`` — start of this process to the finished result record;
* ``setup_s`` — start of this process to the moment the first request
  is driven (first ``drive`` stage entered);
* ``stages`` — the untraced outer timers (``import`` → ``workload`` →
  ``placement`` → ``drive`` → ``report``); they must add up to
  ``wall_s`` within 5 %, which ``run.py`` checks;
* ``peak_rss_mb`` — ``ru_maxrss`` of this process, plus its children
  when it started any.

With ``--trace 1`` the wrappers of :mod:`bench.layers` are installed
around the layers' entry points first and the spans are written to
``bench/out/trace-<workload>.json`` at the end. The last line on
standard output is the pass record as JSON.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent

WORKLOADS = ("paper_scalar", "scale_place", "scale_drive", "chaos_churn", "service_saturate")


class Pass:
    """Stage timers and bookkeeping shared by every workload."""

    def __init__(self, seed: int, scale: float, tracer=None) -> None:
        self.seed = seed
        self.scale = scale
        self.tracer = tracer
        self.stages = {}
        self.setup_s = None

    @contextlib.contextmanager
    def stage(self, name: str):
        """Time a stage; the first ``drive`` stage ends set-up."""
        start = time.perf_counter()
        if name == "drive" and self.setup_s is None:
            self.setup_s = start - _T0
        if self.tracer is not None:
            self.tracer.set_stage(name)
        try:
            yield
        finally:
            self.stages[name] = self.stages.get(name, 0.0) + time.perf_counter() - start

    def sized(self, full: int, floor: int) -> int:
        """A workload dimension at this pass's ``--scale``."""
        return max(floor, int(round(full * self.scale)))


def _peak_rss_mb() -> float:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kb / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from bench import layers

    if args.workload == "service_saturate":
        from bench import service_workload as module
    else:
        from bench import engine_workloads as module

    tracer = None
    if args.trace:
        from bench.trace import Tracer

        tracer = Tracer()
        layers.install(tracer)
    run = Pass(args.seed, args.scale, tracer)
    run.stages["import"] = time.perf_counter() - _T0

    record = getattr(module, args.workload)(run)

    wall_s = time.perf_counter() - _T0
    record.update(
        workload=args.workload,
        seed=args.seed,
        scale=args.scale,
        traced=bool(args.trace),
        wall_s=wall_s,
        setup_s=run.setup_s,
        stages=run.stages,
        peak_rss_mb=_peak_rss_mb(),
    )
    if tracer is not None:
        tracer.uninstall()
        # Micro-loops over the layers' pure functions run after the wall
        # clock has been read, so they never count as tracing overhead.
        record["layers"] = layers.layer_metrics(tracer, record)
        record.get("service", {}).pop("client_durations", None)
        record["stage_layers"] = tracer.by_stage
        out = BENCH_DIR / "out"
        out.mkdir(exist_ok=True)
        with open(out / f"trace-{args.workload}.json", "w") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps(record, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
