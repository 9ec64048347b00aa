"""Import-layering discipline, enforced both in-process and via the CI gate."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
ENGINE = REPO / "src" / "repro" / "engine"

sys.path.insert(0, str(REPO / "tools"))
import check_layering  # noqa: E402


class TestCheckerTool:
    def test_gate_passes_on_this_tree(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "check_layering.py")],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert proc.returncode == 0, proc.stderr
        assert "layering OK" in proc.stdout

    def test_ban_detection(self):
        """A forged engine→experiments edge must be reported."""
        edges = [("repro.engine.engine", "repro.experiments.runner", 12)]
        problems = check_layering.check_bans(edges)
        assert len(problems) == 1
        assert "repro.engine.engine:12" in problems[0]

    def test_workloads_may_not_import_the_request_object(self, tmp_path):
        """A schedule is columns replayed as rows: a workload module that
        imports ``MetadataRequest`` is refused; the file-set catalog it
        builds on is not."""
        modules = {}
        for name, text in (
            ("repro.cluster.fileset", "class FileSetCatalog:\n    pass\n"),
            ("repro.cluster.request", "class MetadataRequest:\n    pass\n"),
            (
                "repro.workloads.synthetic",
                "from ..cluster.fileset import FileSetCatalog\n"
                "from ..cluster.request import MetadataRequest\n",
            ),
        ):
            modules[name] = tmp_path / f"{name.rpartition('.')[2]}.py"
            modules[name].write_text(text)
        _, edges = check_layering.build_graph(modules)
        problems = check_layering.check_bans(edges)
        assert len(problems) == 1
        assert problems[0].startswith(
            "repro.workloads.synthetic:2: imports repro.cluster.request — "
        )

    def test_removed_paths_are_reported(self, tmp_path):
        """A resurrected shim module and a deprecation warning both fail."""
        shim = tmp_path / "cluster.py"
        shim.write_text(
            "import warnings\n"
            "warnings.warn('old', DeprecationWarning, stacklevel=2)\n"
        )
        clean = tmp_path / "fine.py"
        clean.write_text("x = 1\n")
        problems = check_layering.check_removed(
            {"repro.cluster.cluster": shim, "repro.cluster.fine": clean}
        )
        assert len(problems) == 2
        assert "removed module is back" in problems[0]
        assert "repro.cluster.cluster:2: DeprecationWarning" in problems[1]

    def test_removed_names_are_reported(self, tmp_path):
        """Defining or importing ``TuningPolicy`` fails; mentions do not."""
        defines = tmp_path / "tuning.py"
        defines.write_text("class TuningPolicy:\n    pass\n")
        imports = tmp_path / "anu.py"
        imports.write_text(
            "x = 1\nfrom repro.core.tuning import LatencyReport, TuningPolicy\n"
        )
        aliased = tmp_path / "alias.py"
        aliased.write_text("import repro.core.tuning as m\nTuningPolicy = m.X\n")
        clean = tmp_path / "fine.py"
        clean.write_text('"""Formerly TuningPolicy."""\n')
        problems = check_layering.check_removed(
            {
                "repro.core.tuning": defines,
                "repro.core.anu": imports,
                "repro.core.alias": aliased,
                "repro.core.fine": clean,
            }
        )
        assert problems == [
            "repro.core.tuning:1: defines or imports TuningPolicy — removed; "
            "use repro.control.MultiplicativeController",
            "repro.core.anu:2: defines or imports TuningPolicy — removed; "
            "use repro.control.MultiplicativeController",
            "repro.core.alias:2: defines or imports TuningPolicy — removed; "
            "use repro.control.MultiplicativeController",
        ]

    @pytest.mark.parametrize(
        "gone",
        [
            "ExperimentCache",
            "cached_synthetic",
            "default_cache",
            "clear_memo",
            "register_knob",
            "describe_knobs",
            "env_flag",
            "SimulationBuilder",
            "SLAProbe",
            "RoundTraceProbe",
            "observe_many",
            "run_bench_sync",
        ],
    )
    def test_removed_cache_and_registry_names_are_reported(self, tmp_path, gone):
        """The experiment cache, the knob registry, the fluent engine
        builder, the observers that copied result views, the batch tally
        path and the blocking bench wrapper stay deleted."""
        imports = tmp_path / "imports.py"
        imports.write_text(f"from repro.experiments.cache import {gone}\n")
        defines = tmp_path / "defines.py"
        defines.write_text(f"def {gone}():\n    pass\n")
        problems = check_layering.check_removed(
            {"repro.experiments.a": imports, "repro.experiments.b": defines}
        )
        assert problems == [
            f"repro.experiments.a:1: defines or imports {gone} — removed; "
            f"use {check_layering.REMOVED_NAMES[gone]}",
            f"repro.experiments.b:1: defines or imports {gone} — removed; "
            f"use {check_layering.REMOVED_NAMES[gone]}",
        ]

    @pytest.mark.parametrize(
        "importer, target",
        [
            ("repro.cluster.client", "repro.engine.client_path"),
            ("repro.cluster", "repro.engine"),
            ("repro.service.client", "repro.engine.client_path"),
            ("repro.service.protocol", "repro.engine.record"),
            ("repro.service.fileserver", "repro.engine"),
            ("repro.service.locator", "repro.engine.record"),
            ("repro.retry", "repro.engine.probes"),
            ("repro.retry", "repro.service.client"),
            ("repro.retry", "repro.cluster.request"),
        ],
    )
    def test_hardening_boundaries_are_banned(self, importer, target):
        """The cluster model, the serving path and the retry core stay
        below the engine (and the retry core below everything else)."""
        problems = check_layering.check_bans([(importer, target, 7)])
        assert len(problems) == 1
        assert problems[0].startswith(f"{importer}:7: imports {target} — ")

    def test_drive_attempts_stays_removed(self, tmp_path):
        """The retry loop has one home: reviving the old core fails."""
        imports = tmp_path / "imports.py"
        imports.write_text("from repro.engine.client_path import drive_attempts\n")
        defines = tmp_path / "defines.py"
        defines.write_text("x = 1\n\ndef drive_attempts(env, route, request):\n    pass\n")
        problems = check_layering.check_removed(
            {"repro.cluster.client": imports, "repro.engine.client_path": defines}
        )
        assert problems == [
            "repro.cluster.client:1: defines or imports drive_attempts — removed; "
            "use the repro.retry.Attempts state machine",
            "repro.engine.client_path:3: defines or imports drive_attempts — "
            "removed; use the repro.retry.Attempts state machine",
        ]

    def test_removed_env_knobs_and_exporter_are_reported(self, tmp_path):
        """Reading a removed variable, or reviving the exporter or the
        knob parsers, fails."""
        reads = tmp_path / "reads.py"
        reads.write_text(
            '"""Once read REPRO_CACHE."""\n'
            "import os\n"
            "root = os.environ.get('REPRO_CACHE_DIR')\n"
            "on = os.environ['REPRO_CACHE']\n"
            "workers = os.environ.get('REPRO_PARALLEL_WORKERS')\n"
        )
        exporter = tmp_path / "export.py"
        exporter.write_text("x = 1\n")
        problems = check_layering.check_removed(
            {
                "repro.experiments.runner": reads,
                "repro.experiments.export": exporter,
                "repro.knobs": exporter,
            }
        )
        assert problems == [
            "repro.experiments.export: removed module is back "
            f"({exporter})",
            f"repro.knobs: removed module is back ({exporter})",
            "repro.experiments.runner:3: reads REPRO_CACHE_DIR — removed; "
            "figures regenerate their workload from (config, seed)",
            "repro.experiments.runner:4: reads REPRO_CACHE — removed; "
            "figures regenerate their workload from (config, seed)",
            "repro.experiments.runner:5: reads REPRO_PARALLEL_WORKERS — removed; "
            "pass --workers / max_workers (default: the CPU count)",
        ]

    def test_stream_frame_helpers_stay_removed(self, tmp_path):
        """The wire has one framing path: reviving the stream helpers fails."""
        imports = tmp_path / "imports.py"
        imports.write_text("from repro.service.protocol import read_frame, encode_frame\n")
        defines = tmp_path / "defines.py"
        defines.write_text("async def write_frame(writer, message):\n    pass\n")
        problems = check_layering.check_removed(
            {"repro.service.client": imports, "repro.service.protocol": defines}
        )
        assert problems == [
            "repro.service.client:1: defines or imports read_frame — removed; "
            "use repro.service.protocol.FrameProtocol over FrameDecoder",
            "repro.service.protocol:1: defines or imports write_frame — removed; "
            "use repro.service.protocol.FrameProtocol over FrameDecoder",
        ]

    @pytest.mark.parametrize(
        "gone",
        [
            "TableBinPacking",
            "drain_fileset_work",
            "reads_fileset_work",
            "observed_fileset_work",
            "track_fileset_work",
            "ElectionProtocol",
        ],
    )
    def test_table_policy_names_and_election_protocol_are_reported(self, tmp_path, gone):
        """The lookup-table policy, its per-file-set work channel and
        the message-level election stay deleted."""
        imports = tmp_path / "imports.py"
        imports.write_text(f"from repro.policies import {gone}\n")
        defines = tmp_path / "defines.py"
        defines.write_text(f"def {gone}():\n    pass\n")
        problems = check_layering.check_removed(
            {"repro.engine.a": imports, "repro.engine.b": defines}
        )
        assert problems == [
            f"repro.engine.a:1: defines or imports {gone} — removed; "
            f"use {check_layering.REMOVED_NAMES[gone]}",
            f"repro.engine.b:1: defines or imports {gone} — removed; "
            f"use {check_layering.REMOVED_NAMES[gone]}",
        ]

    @pytest.mark.parametrize(
        "gone", ["ArrayCatalog", "work_matrix", "rate_per_fileset", "work_between"]
    )
    def test_second_schedule_surface_stays_removed(self, tmp_path, gone):
        """A schedule has one container: a second catalog class or the
        test-only oracle views on Workload are rejected."""
        imports = tmp_path / "imports.py"
        imports.write_text(f"from repro.workloads.scale import {gone}\n")
        defines = tmp_path / "defines.py"
        defines.write_text(f"class Workload:\n    def {gone}(self):\n        pass\n")
        problems = check_layering.check_removed(
            {"repro.experiments.a": imports, "repro.workloads.synthetic": defines}
        )
        assert problems == [
            f"repro.experiments.a:1: defines or imports {gone} — removed; "
            f"use {check_layering.REMOVED_NAMES[gone]}",
            f"repro.workloads.synthetic:2: defines or imports {gone} — removed; "
            f"use {check_layering.REMOVED_NAMES[gone]}",
        ]

    @pytest.mark.parametrize(
        "gone", ["repro.metrics.sla", "repro.core.delegate", "repro.analysis.stats"]
    )
    def test_test_only_modules_stay_removed(self, tmp_path, gone):
        """The SLA view and the out-of-band delegate had only tests for
        callers: a revived module is rejected."""
        module = tmp_path / "revived.py"
        module.write_text("x = 1\n")
        assert check_layering.check_removed({gone: module}) == [
            f"{gone}: removed module is back ({module})"
        ]

    @pytest.mark.parametrize(
        "gone",
        [
            "Delegate",
            "Decision",
            "SLA",
            "SLAReport",
            "evaluate_sla",
            "ConfidenceInterval",
            "bootstrap_mean_ci",
            "pareto_tail_index",
            "render_lengths_bar",
            "scaling_factor_c",
            "filesets_on",
            "unsubscribe",
            "mean_sem",
            "simple_randomization_bound",
        ],
    )
    def test_test_only_names_stay_removed(self, tmp_path, gone):
        """Public surface only tests called is rejected when imported or
        defined again."""
        imports = tmp_path / "imports.py"
        imports.write_text(f"from repro.core import {gone}\n")
        defines = tmp_path / "defines.py"
        defines.write_text(f"class Holder:\n    def {gone}(self):\n        pass\n")
        problems = check_layering.check_removed(
            {"repro.experiments.a": imports, "repro.core.b": defines}
        )
        assert problems == [
            f"repro.experiments.a:1: defines or imports {gone} — removed; "
            f"use {check_layering.REMOVED_NAMES[gone]}",
            f"repro.core.b:2: defines or imports {gone} — removed; "
            f"use {check_layering.REMOVED_NAMES[gone]}",
        ]

    def test_sanity_contract_function_stays_removed(self, tmp_path):
        """The Figure 4 sanity contract is six claims of the claims
        table; a second copy of it in the figure module is rejected."""
        module = tmp_path / "fig4.py"
        module.write_text("def sanity_against_synthetic(trace, synth):\n    pass\n")
        assert check_layering.check_removed({"repro.experiments.figures.fig4": module}) == [
            "repro.experiments.figures.fig4:1: defines or imports sanity_against_synthetic"
            f" — removed; use {check_layering.REMOVED_NAMES['sanity_against_synthetic']}",
        ]

    def test_resample_edges_parameter_stays_removed(self, tmp_path):
        """``latency_series`` returns the native samples only."""
        module = tmp_path / "latency.py"
        module.write_text("def latency_series(result, resample_edges=None):\n    pass\n")
        assert check_layering.check_removed({"repro.metrics.latency": module}) == [
            "repro.metrics.latency:1: defines or imports resample_edges — removed; "
            f"use {check_layering.REMOVED_NAMES['resample_edges']}",
        ]

    def test_fileset_work_channel_is_rejected_as_field_attribute_or_parameter(self, tmp_path):
        """A revived table module, a policy flag, a context field and a
        server parameter are each reported."""
        table = tmp_path / "table.py"
        table.write_text("x = 1\n")
        base = tmp_path / "base.py"
        base.write_text(
            "class LoadManager:\n"
            "    reads_fileset_work = False\n"
            "class RebalanceContext:\n"
            "    observed_fileset_work: dict = None\n"
        )
        server = tmp_path / "server.py"
        server.write_text(
            "class FileServer:\n"
            "    def __init__(self, env, track_fileset_work=True):\n"
            "        pass\n"
        )
        problems = check_layering.check_removed(
            {
                "repro.policies.table": table,
                "repro.policies.base": base,
                "repro.cluster.server": server,
            }
        )
        channel = check_layering.REMOVED_NAMES["drain_fileset_work"]
        assert problems == [
            f"repro.policies.table: removed module is back ({table})",
            f"repro.policies.base:2: defines or imports reads_fileset_work — removed; use {channel}",
            f"repro.policies.base:4: defines or imports observed_fileset_work — removed; "
            f"use {channel}",
            f"repro.cluster.server:2: defines or imports track_fileset_work — removed; "
            f"use {channel}",
        ]

    def test_per_server_moment_landing_stays_removed(self, tmp_path):
        """Flushes land moments in bulk: a per-server method is rejected."""
        defines = tmp_path / "defines.py"
        defines.write_text(
            "class FileServer:\n"
            "    def absorb_moments(self, count, total, m2, lo, hi, busy, samples):\n"
            "        pass\n"
        )
        problems = check_layering.check_removed({"repro.cluster.server": defines})
        assert problems == [
            "repro.cluster.server:2: defines or imports absorb_moments — removed; "
            "use repro.cluster.server.land_moments (one merge per flush chunk)",
        ]

    @pytest.mark.parametrize("gone", ["_service_loop", "_serve_forever"])
    def test_generator_service_loop_stays_removed(self, tmp_path, gone):
        """Stations serve their FIFO from calendar callbacks: a revived
        generator loop is rejected."""
        defines = tmp_path / "defines.py"
        defines.write_text(
            "class SharedDisk:\n"
            f"    def {gone}(self):\n"
            "        yield self._queue.get()\n"
        )
        problems = check_layering.check_removed({"repro.cluster.disk": defines})
        assert problems == [
            f"repro.cluster.disk:2: defines or imports {gone} — removed; use "
            "calendar callbacks through Simulator.schedule_at (the FileServer FIFO clock)",
        ]

    def test_generator_kernel_stays_removed(self, tmp_path):
        """The kernel is one calendar of callbacks: importing ``AnyOf``
        (or a revived ``repro.sim.process``) is rejected."""
        imports = tmp_path / "imports.py"
        imports.write_text("from repro.sim import AnyOf, Simulator\n")
        process = tmp_path / "process.py"
        process.write_text("x = 1\n")
        problems = check_layering.check_removed(
            {"repro.engine.client_path": imports, "repro.sim.process": process}
        )
        assert problems == [
            f"repro.sim.process: removed module is back ({process})",
            "repro.engine.client_path:1: defines or imports AnyOf — removed; "
            "use Simulator.schedule_at (a cancellable calendar callback)",
        ]

    def test_stream_api_is_rejected_under_service(self, tmp_path):
        """The live service has one transport; other layers are not policed."""
        streams = tmp_path / "streams.py"
        streams.write_text(
            "import asyncio\n"
            "from asyncio import Lock, sleep\n"
            "async def f(host, port, fut):\n"
            "    server = await asyncio.start_server(None, host, port)\n"
            "    reader, writer = await asyncio.open_connection(host, port)\n"
            "    return await asyncio.wait_for(fut, 1.0)\n"
        )
        problems = check_layering.check_service_transport(
            {"repro.service.locator": streams, "repro.experiments.runner": streams}
        )
        assert sorted(problems) == sorted(
            [
                f"repro.service.locator:{line}: uses asyncio.{attr} — the live "
                f"service uses {check_layering.BANNED_ASYNCIO[attr]}"
                for line, attr in (
                    (2, "Lock"),
                    (4, "start_server"),
                    (5, "open_connection"),
                    (6, "wait_for"),
                )
            ]
        )

    def test_cycle_detection(self):
        graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": set()}
        cycles = check_layering.find_cycles(graph)
        assert cycles == [["a", "b", "c"]]

    def test_acyclic_graph_is_clean(self):
        graph = {"a": {"b", "c"}, "b": {"c"}, "c": set()}
        assert check_layering.find_cycles(graph) == []

    def test_type_checking_imports_are_ignored(self):
        tree = ast.parse(
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.experiments import runner\n"
            "from repro.sim import Simulator\n"
        )
        found = list(
            check_layering.module_level_imports("repro.engine.x", tree, False)
        )
        targets = [t for t, _ in found]
        assert "repro.sim" in targets
        assert all("experiments" not in t for t in targets)

    def test_lazy_reexports_resolve_to_their_submodule(self):
        """``from pkg import Name`` executes the submodule the package's
        table names for ``Name``; other names fall back to ``pkg.Name``."""
        init = ast.parse(
            "from .._lazy import attach\n"
            "__getattr__, __dir__, __all__ = attach(\n"
            "    __name__, {'kernel': ['Simulator'], 'monitor': ['Tally']}\n"
            ")\n"
        )
        table = check_layering.lazy_exports(init)
        assert table == {"Simulator": "kernel", "Tally": "monitor"}
        tree = ast.parse("from ..sim import Tally, Simulator, rng\n")
        found = [t for t, _ in check_layering.module_level_imports(
            "repro.retry.x", tree, False, {"repro.sim": table}
        )]
        assert found == ["repro.sim.monitor", "repro.sim.kernel", "repro.sim.rng"]

    def test_cycle_through_a_lazy_package_is_found(self):
        """A package init that re-exports lazily has no edges of its own,
        so a cycle through it is only seen through the table."""
        graph, _ = check_layering.build_graph(check_layering.discover_modules())
        assert "repro.sim.monitor" in graph["repro.retry"]
        assert graph["repro.engine"] == {"repro._lazy"}

    def test_relative_imports_resolve(self):
        tree = ast.parse("from ..sim import Simulator\nfrom .probes import ProbeBus\n")
        found = [t for t, _ in check_layering.module_level_imports(
            "repro.engine.engine", tree, False
        )]
        assert found == ["repro.sim", "repro.engine.probes"]


class TestEngineImportDiscipline:
    def test_engine_never_imports_shim_packages_at_top_level(self):
        """Direct AST assertion, independent of the tool's graph walk."""
        banned = ("repro.experiments", "repro.cluster", "repro.faults")
        for path in sorted(ENGINE.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            module = f"repro.engine.{path.stem}" if path.stem != "__init__" else "repro.engine"
            for target, lineno in check_layering.module_level_imports(
                module, tree, path.stem == "__init__"
            ):
                for prefix in banned:
                    assert not target.startswith(prefix), (
                        f"{path.name}:{lineno} imports {target} at module level"
                    )

    def test_engine_imports_cleanly_on_its_own(self, run_fresh):
        """Loading the engine (every module its package re-exports from)
        must not pull in the experiment harness."""
        out = run_fresh(
            "import sys\n"
            "from repro.engine import *\n"
            "mods = [m for m in sys.modules if m.startswith('repro.experiments')]\n"
            "assert not mods, mods\n"
            "print('clean')\n"
        )
        assert "clean" in out

    def test_serving_path_and_cluster_import_without_the_engine(self, run_fresh):
        """The live client loads neither the simulator's layers nor the
        control stack; with ``derive_seed`` (what the load generator
        imports) it loads of the engine only the record module and the
        probe vocabulary. The client, the locator and the file server
        load no NumPy: the serving path of ``repro.service``'s
        docstring. The cluster model loads no further engine module."""
        out = run_fresh(
            "import sys\n"
            "import repro.service.client\n"
            "banned = ('repro.engine', 'repro.cluster', 'repro.policies',\n"
            "          'repro.control', 'repro.experiments')\n"
            "mods = [m for m in sys.modules if m.startswith(banned)]\n"
            "assert not mods, mods\n"
            "import repro.engine.record\n"
            "import repro.service.locator, repro.service.fileserver\n"
            "assert 'numpy' not in sys.modules\n"
            "engine = sorted(m for m in sys.modules if m.startswith('repro.engine'))\n"
            "assert engine == ['repro.engine', 'repro.engine.probes',\n"
            "                  'repro.engine.record'], engine\n"
            "from repro.cluster import *\n"
            "mods = sorted(m for m in sys.modules if m.startswith('repro.engine'))\n"
            "assert mods == engine, mods\n"
            "print('clean')\n"
        )
        assert "clean" in out

    def test_runner_does_not_load_the_claims_table(self, run_fresh):
        """``bench/engine_workloads.py`` imports the runner: loading it
        must not pull in the claims table and every ablation behind it."""
        out = run_fresh(
            "import sys\n"
            "import repro.experiments.runner\n"
            "print('repro.experiments.claims' in sys.modules)\n"
        )
        assert out.strip() == "False"

    def test_sequential_engine_run_loads_no_pool_or_message_stack(self, run_fresh):
        """A one-worker comparison on the direct control plane imports
        neither the process pool nor the distributed control stack."""
        out = run_fresh(
            "import sys\n"
            "from repro.experiments.config import paper_config\n"
            "from repro.experiments.runner import run_comparison\n"
            "from repro.workloads.synthetic import generate_synthetic\n"
            "config = paper_config(seed=2, scale=0.02)\n"
            "workload = generate_synthetic(config.synthetic_config(), seed=2)\n"
            "run_comparison(workload, config, systems=('simple', 'anu'))\n"
            "loaded = ('multiprocessing', 'concurrent.futures', 'repro.distributed')\n"
            "print([m for m in loaded if m in sys.modules])\n"
        )
        assert out.strip() == "[]"
