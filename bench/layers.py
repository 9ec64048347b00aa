"""Which entry points a traced pass wraps, and the per-layer metrics.

Layer names are the repository's modules. ``*_s`` metrics are self time
(the span minus its child spans) summed over the pass unless the name
says otherwise; counts are exact and taken at the same boundary as the
span. ``bench/README.md`` lists, for every metric here, the end-to-end
metric it should move and on which workload.

``SegmentTable.locate`` is deliberately not wrapped: it has no metric of
its own, so its time stays inside its callers' self time
(``core.vector.batched_locate_s``, ``core.vector.segment_delta_s``).
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Any, Dict, List

from .trace import Tracer

#: Micro-loop length for the pure service functions (encode / decode /
#: ``handle``): long enough for a stable per-call mean, short enough to
#: stay well under a second per pass.
MICRO_CALLS = 20_000


def new_record() -> Dict[str, Any]:
    """An empty pass record; ``program`` holds the counters the program
    keeps itself, which :func:`layer_metrics` reads."""
    return {
        "attempted": 0,
        "completed": 0,
        "in_flight": 0,
        "failed": 0,
        "checks": {},
        "exact": {},
        # Per-layer metrics measured without tracing (name -> value).
        "untraced_layers": {},
        "program": {
            "events_processed": 0,
            "reshuffle_s": 0.0,
            "relocated": 0,
            "relocation_opportunity": 0,
            "total_sheds": 0,
            "orphans_redriven": 0,
            "anu_mean_latency_s": 0.0,
            "anu_latency_cov": 0.0,
        },
    }


def install(tracer: Tracer) -> None:
    """Wrap the synchronous entry points of every layer."""
    import repro.core.vector as core_vector
    import repro.faults.timeline as faults_timeline
    import repro.workloads.scale as workloads_scale
    import repro.workloads.synthetic as workloads_synthetic
    import repro.workloads.trace as workloads_trace
    from repro.control import Controller
    from repro.core.anu import ANUManager
    from repro.core.hashing import HashFamily
    from repro.engine import ClusterEngine, ExperimentSpec, VectorChaosFaultLayer
    from repro.policies import LoadManager
    from repro.service.locator import LocatorService

    def generated(t: Tracer, args, kwargs, workload) -> None:
        requests = getattr(workload, "request_count", None)
        t.count("workloads.requests", requests if requests is not None else len(workload.requests))

    for module, attr in (
        (workloads_scale, "generate_scale"),
        (workloads_synthetic, "generate_synthetic"),
        (workloads_trace, "generate_trace_shaped"),
    ):
        tracer.wrap_function(module, attr, "workloads.generate", after=generated)

    tracer.wrap_method(
        HashFamily,
        "batch_offsets",
        "core.hashing.batch_offsets",
        after=lambda t, args, kwargs, out: t.count("core.hashing.digests", out.shape[0]),
    )

    def column_read(t: Tracer, args, kwargs, out) -> None:
        probes = args[0]
        t.kept.setdefault("rounds", {})[id(probes)] = probes.rounds_materialized

    tracer.wrap_method(core_vector.ProbeMatrix, "column", "core.vector.column", after=column_read)
    tracer.wrap_method(core_vector.ProbeMatrix, "sorted_column", "core.vector.sorted_column")
    tracer.wrap_method(core_vector.SegmentTable, "from_layout", "core.vector.segment_table")
    tracer.wrap_method(core_vector.SegmentTable, "patched", "core.vector.segment_table")

    def located(t: Tracer, args, kwargs, out) -> None:
        owner, used = out
        t.count("core.vector.locate_names", owner.shape[0])
        t.count("core.vector.probes", int(used.sum()))

    tracer.wrap_function(core_vector, "batched_locate", "core.vector.batched_locate", after=located)
    tracer.wrap_function(core_vector, "segment_delta", "core.vector.segment_delta")
    tracer.wrap_function(
        core_vector,
        "fifo_drain",
        "core.vector.fifo_drain",
        after=lambda t, args, kwargs, out: t.count(
            "core.vector.drained_requests", args[0].shape[0]
        ),
    )

    tracer.wrap_subclasses(
        LoadManager,
        {
            "initial_placement": "policies.initial_placement",
            "rebalance": "policies.rebalance",
            "server_failed": "policies.server_failed",
            "server_added": "policies.server_added",
        },
    )
    tracer.wrap_method(ExperimentSpec, "build", "engine.build")
    tracer.wrap_method(ClusterEngine, "run", "engine.run")
    tracer.wrap_method(ClusterEngine, "run_chaos", "engine.run")

    tracer.wrap_function(faults_timeline, "compile_timeline", "faults.compile_timeline")
    tracer.wrap_method(VectorChaosFaultLayer, "apply_event", "faults.apply_events")
    tracer.wrap_method(VectorChaosFaultLayer, "sweep", "faults.invariant_sweep")

    tracer.wrap_subclasses(Controller, {"observe": "control.observe"})
    tracer.wrap_method(
        ANUManager,
        "lookup",
        "core.anu.lookup",
        hot=True,
        after=lambda t, args, kwargs, out: t.count("core.anu.probes", out[1]),
    )
    tracer.wrap_method(ANUManager, "tune", "core.anu.tune")

    def handled(t: Tracer, args, kwargs, reply) -> None:
        # Keep the run's first real frames for the codec micro-loop.
        frames = t.kept.setdefault("frames", [])
        if len(frames) < 256:
            frames.append(args[1])
            frames.append(dict(reply))

    tracer.wrap_method(LocatorService, "handle", "service.locator.handle", hot=True, after=handled)
    tracer.wrap_method(LocatorService, "close_epoch", "service.locator.close_epoch")


def install_client(tracer: Tracer) -> None:
    """Collect round-trip times in the load-generator process.

    ``locate`` and ``report`` are the client's own calls; the exec round
    trip is the ``FramedConnection.request`` that carries an ``exec``
    frame (locate and report frames are already inside the other two).
    """
    from repro.service.client import FramedConnection, HardenedServiceClient

    tracer.wrap_async(HardenedServiceClient, "locate", "service.client.locate_rtt")
    tracer.wrap_async(HardenedServiceClient, "report", "service.client.report_rtt")
    tracer.wrap_async(
        FramedConnection,
        "request",
        "service.client.exec_rtt",
        keep=lambda args, kwargs: args[1].get("op") == "exec",
    )


# ---------------------------------------------------------------------- #
# read-out
# ---------------------------------------------------------------------- #
def _per_call_us(fn, items: List[Any]) -> float:
    """Mean microseconds per ``fn(item)`` over a fixed-length micro-loop."""
    if not items:
        return 0.0
    n = len(items)
    start = time.perf_counter()
    for i in range(MICRO_CALLS):
        fn(items[i % n])
    return (time.perf_counter() - start) / MICRO_CALLS * 1e6


def _service_micro(frames: List[dict]) -> Dict[str, float]:
    """Codec and ``handle()`` cost over the run's real frames, no sockets."""
    from repro.service.locator import LocatorService
    from repro.service.protocol import decode_payload, encode_frame

    payloads = [encode_frame(f)[4:] for f in frames]
    requests = [f for f in frames if "op" in f]
    servers = sorted({f["server"] for f in frames if f.get("op") == "report"})
    locator = LocatorService(
        server_powers={s: 1.0 for s in servers},
        addresses={s: ("127.0.0.1", 1) for s in servers},
    )
    return {
        "service.protocol.encode_us": _per_call_us(encode_frame, frames),
        "service.protocol.decode_us": _per_call_us(decode_payload, payloads),
        "service.locator.handle_locate_us": _per_call_us(
            locator.handle, [f for f in requests if f["op"] == "locate"]
        ),
        "service.locator.handle_report_us": _per_call_us(
            locator.handle, [f for f in requests if f["op"] == "report"]
        ),
    }


def _median_us(values: List[float]) -> float:
    return statistics.median(values) * 1e6 if values else 0.0


def layer_metrics(tracer: Tracer, record: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` for one traced pass.

    ``trace.overhead_share`` is not here: it compares traced with
    untraced passes, which only ``run.py`` sees.
    """
    counts = tracer.counts
    program = record["program"]
    service = record.get("service", {})
    client = service.get("client_durations", {})

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    digests = counts.get("core.hashing.digests", 0.0)
    hashing_s = tracer.self_s("core.hashing.batch_offsets")
    run_s = tracer.total_s("engine.run")
    completed_k = service.get("requests_total", 0) / 1000.0
    metrics = {
        "workloads.generate_s": tracer.self_s("workloads.generate"),
        "workloads.requests": counts.get("workloads.requests", 0.0),
        "core.hashing.batch_offsets_s": hashing_s,
        "core.hashing.digests": digests,
        "core.hashing.ns_per_digest": ratio(hashing_s * 1e9, digests),
        "core.vector.sorted_column_s": tracer.self_s("core.vector.sorted_column"),
        "core.vector.rounds_materialized": sum(tracer.kept.get("rounds", {}).values()),
        "core.vector.segment_table_s": tracer.self_s("core.vector.segment_table"),
        "core.vector.segment_delta_s": tracer.self_s("core.vector.segment_delta"),
        "core.vector.batched_locate_s": tracer.self_s("core.vector.batched_locate"),
        "core.vector.locate_names": counts.get("core.vector.locate_names", 0.0),
        "core.vector.probes_per_name": ratio(
            counts.get("core.vector.probes", 0.0), counts.get("core.vector.locate_names", 0.0)
        ),
        "core.vector.fifo_drain_s": tracer.self_s("core.vector.fifo_drain"),
        "core.vector.drained_requests": counts.get("core.vector.drained_requests", 0.0),
        "policies.initial_placement_s": tracer.total_s("policies.initial_placement"),
        "policies.reshuffle_s": program["reshuffle_s"],
        "policies.relocated": program["relocated"],
        "policies.relocate_fraction": ratio(
            program["relocated"], program["relocation_opportunity"]
        ),
        "policies.total_sheds": program["total_sheds"],
        "engine.build_s": tracer.total_s("engine.build"),
        "engine.run_s": run_s,
        "engine.run_self_s": tracer.self_s("engine.run"),
        "faults.compile_timeline_s": tracer.self_s("faults.compile_timeline"),
        "faults.apply_events_s": tracer.self_s("faults.apply_events"),
        "faults.invariant_sweep_s": tracer.self_s("faults.invariant_sweep"),
        "faults.events_applied": tracer.calls("faults.apply_events"),
        "faults.orphans_redriven": program["orphans_redriven"],
        "sim.events_processed": program["events_processed"],
        "sim.events_per_s": ratio(program["events_processed"], run_s),
        "core.anu.lookups": tracer.calls("core.anu.lookup"),
        "core.anu.lookup_s": tracer.self_s("core.anu.lookup"),
        "core.anu.tune_s": tracer.self_s("core.anu.tune"),
        "core.anu.mean_probes": ratio(
            counts.get("core.anu.probes", 0.0), tracer.calls("core.anu.lookup")
        ),
        "control.observe_s": tracer.self_s("control.observe"),
        "control.rounds": tracer.calls("control.observe"),
        "metrics.anu_mean_latency_s": program["anu_mean_latency_s"],
        "metrics.anu_latency_cov": program["anu_latency_cov"],
        "service.protocol.encode_us": 0.0,
        "service.protocol.decode_us": 0.0,
        "service.locator.handle_locate_us": 0.0,
        "service.locator.handle_report_us": 0.0,
        "service.locator.close_epoch_ms": ratio(
            tracer.total_s("service.locator.close_epoch") * 1e3,
            tracer.calls("service.locator.close_epoch"),
        ),
        "service.locator.locates": service.get("locates", 0),
        "service.client.locate_rtt_us": _median_us(client.get("service.client.locate_rtt", [])),
        "service.client.exec_rtt_us": _median_us(client.get("service.client.exec_rtt", [])),
        "service.client.report_rtt_us": _median_us(client.get("service.client.report_rtt", [])),
        "service.client.retries": service.get("retries", 0),
        "service.client.redirects": service.get("redirects", 0),
        "service.client.latency_p50_ms": 0.0,
        "service.client.latency_p99_ms": 0.0,
        "service.server_cpu_s_per_kreq": ratio(service.get("server_cpu_s", 0.0), completed_k),
        "service.loadgen_cpu_s_per_kreq": ratio(service.get("loadgen_cpu_s", 0.0), completed_k),
    }
    metrics.update(record["untraced_layers"])
    frames = tracer.kept.get("frames")
    if frames:
        metrics.update(_service_micro(frames))
    broken = [k for k, v in metrics.items() if not math.isfinite(v)]
    if broken:
        raise ValueError(f"non-finite per-layer metrics: {broken}")
    return {k: float(v) for k, v in metrics.items()}
