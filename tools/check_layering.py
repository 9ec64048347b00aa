#!/usr/bin/env python3
"""Static layering and import-cycle gate for ``src/repro``.

Run from the repository root (CI does)::

    python tools/check_layering.py

Checks, using nothing but the stdlib ``ast`` module:

1. **Layer bans** — ``repro.engine`` is the bottom of the experiment
   stack: none of its modules may import ``repro.experiments`` (the top
   of the stack), and none may import ``repro.cluster`` /
   ``repro.faults`` *at module import time* (``repro.faults`` builds
   on the engine's records, so it sits above the engine, and importing
   the engine never loads it). Function-local (lazy) imports are
   allowed and are how the engine reaches the server/cache models.
   The cluster model imports nothing from the engine, the live
   service's serving path (client, protocol, file server, locator)
   imports nothing from the engine, and the request-hardening core
   ``repro.retry`` imports neither the engine, the service nor the
   cluster model. Workload generation does not import the request
   object: a schedule replays as ``(fileset, arrival, work)`` rows.
2. **Import cycles** — the module-level import graph of ``repro`` must
   be acyclic. Imports guarded by ``if TYPE_CHECKING:`` are ignored
   (they never execute). Package inits re-export lazily
   (``repro._lazy.attach``), so ``from repro.engine import X`` is read
   as an import of the submodule the package's table names for ``X``:
   that is the module the statement executes.
3. **Removed paths stay removed** — the legacy simulation shims, the
   second parallel runner, the CSV exporter and the environment-knob
   validators were deleted; a module under one of their names, or any
   ``DeprecationWarning`` under
   ``src/`` (the shims were the only deprecated surface), fails the
   gate. So does a module that defines or imports a removed name
   (``TuningPolicy``: the paper's tuning rule has one home,
   ``MultiplicativeController``; the experiment cache and the knob
   registry; ``drive_attempts``: the retry, redirect and ledger rules
   have one home, ``repro.retry.Attempts``; ``read_frame`` /
   ``write_frame``: the wire has one framing path, ``FrameDecoder``
   behind ``FrameProtocol``; ``SimulationBuilder``: an engine has one
   front door, ``ExperimentSpec``; ``TableBinPacking`` and its
   per-file-set work channel, and ``ElectionProtocol``: no run used
   them; ``ArrayCatalog``, ``work_matrix`` and ``rate_per_fileset``:
   a schedule has one container, the columnar ``Workload`` and its
   ``FileSetCatalog``) or names a removed environment variable in a
   string. A
   parameter counts as a definition.
4. **One transport for the live service** — no module under
   ``repro.service`` names asyncio's stream API (``start_server``,
   ``open_connection``, ``StreamReader``, ``StreamWriter``), the
   per-call ``wait_for`` or an ``asyncio.Lock``: every endpoint is a
   ``FrameProtocol`` on a callback transport.

Exit status 0 when clean; 1 with one line per violation otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = "repro"

#: (importing-module prefix, banned imported prefix, reason)
BANS: Tuple[Tuple[str, str, str], ...] = (
    (
        "repro.engine",
        "repro.experiments",
        "the engine is below the experiment harness",
    ),
    (
        "repro.engine",
        "repro.cluster",
        "engine modules reach the cluster model lazily, so importing the "
        "engine never loads it",
    ),
    (
        "repro.cluster",
        "repro.engine",
        "the cluster model is below the engine",
    ),
    (
        "repro.engine",
        "repro.faults",
        "it imports the engine's records; engine modules must import it lazily",
    ),
    # The vectorized path added array kernels to repro.core and an
    # array workload to repro.workloads; both stay below the engine.
    (
        "repro.core",
        "repro.engine",
        "core kernels are below the engine",
    ),
    (
        "repro.core",
        "repro.experiments",
        "core kernels are below the experiment harness",
    ),
    (
        "repro.core",
        "repro.cluster",
        "core kernels must not depend on the cluster model",
    ),
    (
        "repro.core",
        "repro.workloads",
        "core kernels must not depend on workload generation",
    ),
    (
        "repro.workloads",
        "repro.engine",
        "workload generation is below the engine",
    ),
    (
        "repro.workloads",
        "repro.experiments",
        "workload generation is below the experiment harness",
    ),
    (
        "repro.workloads",
        "repro.cluster.request",
        "a schedule is columns replayed as rows; request objects belong "
        "to the cluster model",
    ),
    (
        "repro.policies",
        "repro.engine",
        "placement policies are below the engine",
    ),
    (
        "repro.policies",
        "repro.experiments",
        "placement policies are below the experiment harness",
    ),
    # The controller family is pure decision logic over latency
    # reports; it sits beside repro.core and below everything that
    # drives simulations.
    (
        "repro.control",
        "repro.engine",
        "controllers are below the engine",
    ),
    (
        "repro.control",
        "repro.experiments",
        "controllers are below the experiment harness",
    ),
    (
        "repro.control",
        "repro.cluster",
        "controllers see latency reports, not the cluster model",
    ),
    (
        "repro.control",
        "repro.policies",
        "policies adapt controllers, never the reverse",
    ),
    (
        "repro.control",
        "repro.workloads",
        "controllers must not depend on workload generation",
    ),
    # The live service sits at the very top: it may import the engine,
    # control, workloads, and metrics layers, but nothing below may
    # reach back up into it — the simulator must stay runnable without
    # a single socket in sight.
    (
        "repro.core",
        "repro.service",
        "core kernels are below the live service",
    ),
    (
        "repro.engine",
        "repro.service",
        "the engine is below the live service",
    ),
    (
        "repro.sim",
        "repro.service",
        "the simulation kernel is below the live service",
    ),
    (
        "repro.control",
        "repro.service",
        "controllers are below the live service",
    ),
    (
        "repro.workloads",
        "repro.service",
        "workload generation is below the live service",
    ),
    (
        "repro.policies",
        "repro.service",
        "placement policies are below the live service",
    ),
    (
        "repro.cluster",
        "repro.service",
        "the cluster model is below the live service",
    ),
    # The serving path of the live service runs without the simulator:
    # the client's retry, redirect and ledger rules come from
    # repro.retry, not from the engine's client path.
    (
        "repro.service.client",
        "repro.engine",
        "the live client takes its retry rules from repro.retry",
    ),
    (
        "repro.service.protocol",
        "repro.engine",
        "the wire protocol runs without the simulator",
    ),
    (
        "repro.service.fileserver",
        "repro.engine",
        "the echo file server runs without the simulator",
    ),
    (
        "repro.service.locator",
        "repro.engine",
        "the locator runs without the simulator",
    ),
    # The request-hardening core is a leaf both clients import: it may
    # depend on the simulation kernel's Tally and nothing above it.
    (
        "repro.retry",
        "repro.engine",
        "the request-hardening core is below the engine",
    ),
    (
        "repro.retry",
        "repro.service",
        "the request-hardening core is below the live service",
    ),
    (
        "repro.retry",
        "repro.cluster",
        "the request-hardening core is below the cluster model",
    ),
)


#: Deleted modules that must not come back: build an engine with
#: ``ExperimentSpec(...).build()``, fan runs out with
#: ``run_comparison``; the figure-data CSV exporter had no caller; the
#: kernel has no generator processes or resources, only calendar
#: callbacks; the environment knobs duplicated command-line flags; the
#: lookup-table policy ran in no experiment (its state size is
#: ``repro.distributed.state.lookup_table_footprint``); the SLA view and
#: the out-of-band delegate had only tests for callers (the delegate's
#: decision is ``ANUManager.tune``).
REMOVED_MODULES: Tuple[str, ...] = (
    "repro.cluster.cluster",
    "repro.cluster.distributed_cluster",
    "repro.experiments.parallel",
    "repro.experiments.export",
    "repro.sim.process",
    "repro.sim.resources",
    "repro.knobs",
    "repro.policies.table",
    "repro.metrics.sla",
    "repro.core.delegate",
    "repro.analysis.stats",
)

_KNOB_PARSERS = "a command-line flag or a function argument"
_REGENERATE = "figures regenerate their workload from (config, seed)"
_ONE_FRAMING = "repro.service.protocol.FrameProtocol over FrameDecoder"
_FIFO_CLOCK = "calendar callbacks through Simulator.schedule_at (the FileServer FIFO clock)"
_CALLBACKS = "Simulator.schedule_at (a cancellable calendar callback)"
_NO_FILESET_WORK = "the servers' LatencyReport (no policy reads per-file-set work)"
_TUNE = "repro.core.ANUManager.tune (Controller.observe through the LayoutEngine)"
_LATENCIES = "the result's latencies (ClusterResult.all_latencies, server_tally)"
_TEST_ONLY = "nothing (only tests called it)"

#: Deleted names that must not come back, with what replaced them.
REMOVED_NAMES: Dict[str, str] = {
    "TuningPolicy": "repro.control.MultiplicativeController",
    "ExperimentCache": "repro.workloads.generate_synthetic",
    "cached_synthetic": "repro.workloads.generate_synthetic",
    "default_cache": "repro.workloads.generate_synthetic",
    "clear_memo": "repro.workloads.generate_synthetic",
    "register_knob": _KNOB_PARSERS,
    "describe_knobs": _KNOB_PARSERS,
    "env_flag": _KNOB_PARSERS,
    "drive_attempts": "the repro.retry.Attempts state machine",
    "read_frame": _ONE_FRAMING,
    "write_frame": _ONE_FRAMING,
    "absorb_moments": "repro.cluster.server.land_moments (one merge per flush chunk)",
    "_service_loop": _FIFO_CLOCK,
    "_serve_forever": _FIFO_CLOCK,
    "Process": _CALLBACKS,
    "AnyOf": _CALLBACKS,
    "AllOf": _CALLBACKS,
    "Store": _CALLBACKS,
    "Resource": _CALLBACKS,
    "Interrupt": _CALLBACKS,
    "force_trigger": _CALLBACKS,
    "_tuning_loop": _CALLBACKS,
    "_invariant_loop": _CALLBACKS,
    "_probe_loop": _CALLBACKS,
    "SimulationBuilder": "repro.engine.ExperimentSpec(...).build() (chaos: **chaos_layers(...))",
    "SLAProbe": _LATENCIES,
    "RoundTraceProbe": "the result's movement log (ClusterResult.movement)",
    "observe_many": "Tally.observe_each (or observe_moments for a pre-reduced batch)",
    "run_bench_sync": "asyncio.run(run_bench(...)) and bench_payload",
    "TableBinPacking": "repro.distributed.state.lookup_table_footprint (the §6 table's state size)",
    "drain_fileset_work": _NO_FILESET_WORK,
    "reads_fileset_work": _NO_FILESET_WORK,
    "observed_fileset_work": _NO_FILESET_WORK,
    "track_fileset_work": _NO_FILESET_WORK,
    "ElectionProtocol": "repro.distributed.election.elect (every node applies it; no messages)",
    "ArrayCatalog": "repro.cluster.fileset.FileSetCatalog (one columnar catalog)",
    "work_matrix": "np.bincount over a window of Workload.fs_idx / works",
    "rate_per_fileset": "FileSetCatalog.get(name).total_work / Workload.duration",
    "Delegate": _TUNE,
    "Decision": _TUNE,
    "SLA": _LATENCIES,
    "SLAReport": _LATENCIES,
    "evaluate_sla": _LATENCIES,
    "ConfidenceInterval": _TEST_ONLY,
    "bootstrap_mean_ci": _TEST_ONLY,
    "pareto_tail_index": _TEST_ONLY,
    "is_heavy_tailed": _TEST_ONLY,
    "render_lengths_bar": "repro.core.render.render_layout",
    "scaling_factor_c": "repro.workloads.request_work_for_utilization",
    "weakest_server_overloaded": _TEST_ONLY,
    "offset_matrix": "HashFamily.batch_offsets per round",
    "filesets_on": "ANUManager.assignments",
    "vp_populations": _TEST_ONLY,
    "completion_in_input_order": _TEST_ONLY,
    "enable_completion_probe": "subscribe to RequestCompleted before ExperimentSpec.build()",
    "unsubscribe": _TEST_ONLY,
    "resample_edges": "latency_series's native per-interval samples",
    "sanity_against_synthetic": "the trace:/synthetic: claims of repro.experiments.claims",
    "work_between": "np.bincount over a window of Workload.fs_idx / works (no policy reads it)",
    "mean_sem": _TEST_ONLY,
    "simple_randomization_bound": _TEST_ONLY,
}

#: Deleted environment variables: a module that names one in a string
#: literal is reading it again.
REMOVED_ENV: Dict[str, str] = {
    "REPRO_CACHE": _REGENERATE,
    "REPRO_CACHE_DIR": _REGENERATE,
    "REPRO_PARALLEL_WORKERS": "pass --workers / max_workers (default: the CPU count)",
    "REPRO_SERVICE_PORT": "pass serve --port",
    "REPRO_SERVICE_EPOCH_SECONDS": "pass serve --epoch-seconds",
    "REPRO_SERVICE_CLIENTS": "pass bench --clients",
}


#: The live service's one transport: asyncio names a module under
#: ``repro.service`` must not use, with what replaced them.
SERVICE_PREFIX = "repro.service"
_CALLBACK_TRANSPORT = "a FrameProtocol on a callback transport (FrameServer.open / create_connection)"
BANNED_ASYNCIO: Dict[str, str] = {
    "start_server": _CALLBACK_TRANSPORT,
    "open_connection": _CALLBACK_TRANSPORT,
    "StreamReader": _CALLBACK_TRANSPORT,
    "StreamWriter": _CALLBACK_TRANSPORT,
    "wait_for": "one loop.call_later timer per request",
    "Lock": "the echo server's FIFO clock",
}


def discover_modules() -> Dict[str, Path]:
    """Map dotted module name -> source file for the whole package."""
    modules: Dict[str, Path] = {}
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        rel = path.relative_to(SRC).with_suffix("")
        parts = list(rel.parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _is_type_checking_guard(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def lazy_exports(tree: ast.Module) -> Dict[str, str]:
    """Name -> submodule of a package init's ``attach(__name__, {...})``
    table (empty for a module that re-exports nothing lazily)."""
    for node in tree.body:
        call = getattr(node, "value", None)
        if (
            isinstance(node, ast.Assign)
            and isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "attach"
        ):
            table = ast.literal_eval(call.args[1])
            return {name: sub for sub, names in table.items() for name in names}
    return {}


def module_level_imports(
    module: str,
    tree: ast.Module,
    is_package: bool,
    lazy: Optional[Dict[str, Dict[str, str]]] = None,
) -> Iterator[Tuple[str, int]]:
    """Yield (imported dotted name, lineno) for executed top-level imports.

    Walks statements reachable at import time (including inside
    ``try``/``if`` at module level) but skips function and class bodies
    and ``if TYPE_CHECKING:`` blocks. ``lazy`` maps a package to its
    :func:`lazy_exports` table: ``from pkg import Name`` then yields
    ``pkg.<submodule defining Name>`` (and ``pkg.Name`` for any other
    name, which resolves to a submodule or back to the package).
    """
    lazy = lazy or {}

    def walk(stmts) -> Iterator[Tuple[str, int]]:
        for node in stmts:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name, node.lineno
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    # Resolve the relative import against this module.
                    pkg_parts = module.split(".")
                    if not is_package:
                        pkg_parts = pkg_parts[:-1]
                    base = pkg_parts[: len(pkg_parts) - node.level + 1]
                    target = ".".join(base + ([node.module] if node.module else []))
                else:
                    target = node.module or ""
                if target in lazy:
                    table = lazy[target]
                    for alias in node.names:
                        sub = table.get(alias.name, alias.name)
                        yield f"{target}.{sub}", node.lineno
                elif target:
                    yield target, node.lineno
            elif isinstance(node, ast.If):
                if _is_type_checking_guard(node):
                    continue
                yield from walk(node.body)
                yield from walk(node.orelse)
            elif isinstance(node, ast.Try):
                yield from walk(node.body)
                for handler in node.handlers:
                    yield from walk(handler.body)
                yield from walk(node.orelse)
                yield from walk(node.finalbody)
            # Function/class bodies are lazy: not walked.

    yield from walk(tree.body)


def build_graph(
    modules: Dict[str, Path],
) -> Tuple[Dict[str, Set[str]], List[Tuple[str, str, int]]]:
    """Return (adjacency over known modules, raw edges with line numbers)."""
    graph: Dict[str, Set[str]] = {name: set() for name in modules}
    edges: List[Tuple[str, str, int]] = []
    trees = {
        name: ast.parse(path.read_text(), filename=str(path))
        for name, path in modules.items()
    }
    lazy = {
        name: table
        for name, path in modules.items()
        if path.name == "__init__.py" and (table := lazy_exports(trees[name]))
    }
    for name, path in modules.items():
        tree = trees[name]
        is_package = path.name == "__init__.py"
        for target, lineno in module_level_imports(name, tree, is_package, lazy):
            if not target.startswith(PACKAGE):
                continue
            # Normalize to the longest known module prefix (an import of
            # a symbol from a package lands on the package itself).
            node = target
            while node and node not in modules:
                node = node.rpartition(".")[0]
            if node and node != name:
                graph[name].add(node)
                edges.append((name, target, lineno))
    return graph, edges


def check_bans(edges: List[Tuple[str, str, int]]) -> List[str]:
    problems = []
    for importer, target, lineno in edges:
        for src_prefix, banned_prefix, reason in BANS:
            if importer.startswith(src_prefix) and target.startswith(banned_prefix):
                problems.append(
                    f"{importer}:{lineno}: imports {target} — {reason}"
                )
    return problems


def _bound_names(node: ast.AST) -> Iterator[str]:
    """Names ``node`` defines or imports (``import a.B as C``: B and C);
    a parameter counts as defined."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        yield node.name
    elif isinstance(node, ast.arg):
        yield node.arg
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        for alias in node.names:
            yield alias.name.rpartition(".")[2]
            if alias.asname:
                yield alias.asname
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        yield node.id


def check_removed(modules: Dict[str, Path]) -> List[str]:
    """Resurrected modules, removed names and deprecation shims."""
    problems = [
        f"{name}: removed module is back ({modules[name]})"
        for name in REMOVED_MODULES
        if name in modules
    ]
    for name, path in modules.items():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and node.id == "DeprecationWarning":
                problems.append(
                    f"{name}:{node.lineno}: DeprecationWarning — delete the "
                    "old path instead of deprecating it"
                )
            for gone in sorted(set(_bound_names(node)) & REMOVED_NAMES.keys()):
                problems.append(
                    f"{name}:{node.lineno}: defines or imports {gone} — "
                    f"removed; use {REMOVED_NAMES[gone]}"
                )
            if isinstance(node, ast.Constant) and node.value in REMOVED_ENV:
                problems.append(
                    f"{name}:{node.lineno}: reads {node.value} — removed; "
                    f"{REMOVED_ENV[node.value]}"
                )
    return problems


def check_service_transport(modules: Dict[str, Path]) -> List[str]:
    """``asyncio.X`` / ``from asyncio import X`` of a banned X under
    ``repro.service``."""
    problems = []
    for name, path in modules.items():
        if not (name == SERVICE_PREFIX or name.startswith(SERVICE_PREFIX + ".")):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "asyncio"
            ):
                used = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "asyncio":
                used = [alias.name for alias in node.names]
            else:
                continue
            for attr in used:
                if attr in BANNED_ASYNCIO:
                    problems.append(
                        f"{name}:{node.lineno}: uses asyncio.{attr} — the live "
                        f"service uses {BANNED_ASYNCIO[attr]}"
                    )
    return problems


def find_cycles(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Tarjan SCC; returns components of size > 1 (plus self-loops)."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    cycles: List[List[str]] = []

    def strongconnect(v: str) -> None:
        # Iterative Tarjan (deep module chains would blow the recursion
        # limit long before they blow anything else).
        work = [(v, iter(sorted(graph[v])))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == node:
                        break
                if len(component) > 1 or node in graph[node]:
                    cycles.append(sorted(component))

    for v in sorted(graph):
        if v not in index:
            strongconnect(v)
    return cycles


def main() -> int:
    modules = discover_modules()
    graph, edges = build_graph(modules)
    problems = check_bans(edges) + check_removed(modules) + check_service_transport(modules)
    for component in find_cycles(graph):
        problems.append("import cycle: " + " <-> ".join(component))
    if problems:
        for line in problems:
            print(line, file=sys.stderr)
        print(f"\n{len(problems)} layering violation(s)", file=sys.stderr)
        return 1
    print(
        f"layering OK: {len(modules)} modules, {len(edges)} internal imports, no cycles"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
