#!/usr/bin/env python3
"""Reachability ledger for ``src/repro``: which functions does no user
entry point enter?

Run from the repository root (CI does)::

    python tools/check_reach.py

The script runs every user-facing entry point in this one process, with
a profile hook (``sys.setprofile``, also set for threads) that records
each code object a call enters:

* every ``examples/*.py``;
* ``python -m repro.experiments --all --scale 0.05`` and
  ``--figure fig4 --scale 0.05``, ``claims --help``, the ``chaos`` smoke,
  and the ``scale``, ``chaos-scale`` and ``control`` sweep smokes at
  ``--workers 1``;
* the claims table over ``repro.experiments.claims.Runs`` at scale 0.1,
  called in process (see :func:`_claims_scaled`);
* ``python -m bench.onepass --scale 0.05 --trace 1`` for each of the
  five benchmark workloads (the traced pass, as CI runs it);
* ``python -m repro.service bench --smoke --inline`` (in-process load
  generators);
* ``python -m repro.workloads generate`` and ``inspect``;
* ``tools/check_relocation_equivalence.py``, the one other gate that
  runs src rather than parsing it.

Child processes record nothing: forked pool workers leave through
``os._exit``, and the benchmark's load generator is a process of its own.

It then lists, grouped by module, every function defined under
``src/repro`` that no entry point entered (abstract methods and
stubs whose body is ``...``, ``pass`` or ``raise NotImplementedError``
excluded: no call is meant to run them), and checks
that list against the allowlist ``tools/reach_allowlist.txt``, one
``module:qualname  # reason`` per line. A reason starts with one of the
tags in :data:`REASONS`. The gate fails on

* an unreached *public* function (no ``_``-prefixed part in its module
  or qualified name; dunders are public) that is not allowlisted —
  ``__repr__`` aside, which is listed but never gated (see
  :func:`is_gated`);
* an allowlist entry that some entry point now reaches, or that names
  no function in ``src/`` (delete the line);
* an allowlist line without a known reason tag.

Unreached private functions are listed but do not fail the gate. The
output is each entry point's time, then the ledger, then the verdict.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = ROOT / "tools" / "reach_allowlist.txt"

#: Why a public function may stay unreached by every entry point.
REASONS: Dict[str, str] = {
    "oracle": "a test oracle (the reference a test checks the program against)",
    "fault": "a fault or error path no healthy run takes",
    "serve": "the long-running `repro.service serve` command",
    "child": "runs only in a multi-worker child process",
    "interface": "a hook the language or an interface requires (an abstract "
    "method's implementation, a PEP 562 or pickling hook)",
}

#: A function as the ledger names it: (module, qualname).
Function = Tuple[str, str]


# ---------------------------------------------------------------------- #
# what src defines
# ---------------------------------------------------------------------- #
def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_stub(node: ast.AST) -> bool:
    """An abstract method, or a body of only a docstring and ``...``,
    ``pass`` or ``raise NotImplementedError``: an interface declaration
    whose body no call is meant to run."""
    for dec in node.decorator_list:
        name = dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", "")
        if name in ("abstractmethod", "overload"):
            return True
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if not body:
        return True
    if len(body) != 1:
        return False
    (stmt,) = body
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr):
        return isinstance(stmt.value, ast.Constant) and stmt.value.value is ...
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def _walk_defs(node: ast.AST, prefix: str) -> Iterator[Tuple[str, ast.AST]]:
    """Every function under ``node`` with CPython's ``__qualname__``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            yield qualname, child
            yield from _walk_defs(child, qualname + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _walk_defs(child, prefix + child.name + ".")
        else:
            yield from _walk_defs(child, prefix)


def defined_functions() -> Dict[Tuple[str, int], Function]:
    """(file, first line) → (module, qualname) for every src function."""
    functions: Dict[Tuple[str, int], Function] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualname, node in _walk_defs(tree, ""):
            if _is_stub(node):
                continue
            first = min([node.lineno] + [dec.lineno for dec in node.decorator_list])
            functions[(str(path), first)] = (module, qualname)
    return functions


def is_gated(function: Function) -> bool:
    """Public (no ``_``-prefixed part; dunders count as public), and not
    a ``__repr__``: whether a repr runs depends on who prints the object,
    down to how the process was started (``asyncio.run`` formats its
    main task only when it installs its own SIGINT handler)."""
    module, qualname = function
    parts = module.split(".") + qualname.split(".")
    return (
        "<locals>" not in parts
        and parts[-1] != "__repr__"
        and not any(part.startswith("_") and not part.endswith("__") for part in parts)
    )


# ---------------------------------------------------------------------- #
# what the entry points enter
# ---------------------------------------------------------------------- #
@contextlib.contextmanager
def recording(entered: Set[Tuple[str, int]]) -> Iterator[None]:
    """Add (file, first line) of every Python function called to ``entered``."""

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(None)
        threading.setprofile(None)  # type: ignore[arg-type]


def _module_main(module: str, *argv: str) -> Callable[[], object]:
    def run() -> object:
        saved = sys.argv
        sys.argv = [module, *argv]
        try:
            return runpy.run_module(module, run_name="__main__", alter_sys=True)
        finally:
            sys.argv = saved

    return run


def _script(path: Path) -> Callable[[], object]:
    def run() -> object:
        saved = sys.argv
        sys.argv = [str(path)]
        try:
            return runpy.run_path(str(path), run_name="__main__")
        finally:
            sys.argv = saved

    return run


def _claims_scaled() -> object:
    """``claims.report`` over runs at a tenth of paper scale.

    The ``claims`` command takes no flags and runs at full scale, ~8 s
    alone but ~45 s under the profile hook. The scaled runs enter the
    same producers and checks. Some claims need the full run length and
    fail here, so the verdict is returned, not gated: CI's paper-shape
    job runs the command itself and gates on its exit code.
    """
    from repro.experiments import claims

    return claims.report(runs=claims.Runs(scale=0.1))


def entry_points(scratch: Path) -> List[Tuple[str, Callable[[], object]]]:
    """The user-facing runs, as (label, callable) in a fixed order."""
    points: List[Tuple[str, Callable[[], object]]] = [
        (f"examples/{path.name}", _script(path))
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    points.append(
        ("experiments --all", _module_main("repro.experiments", "--all", "--scale", "0.05"))
    )
    points.append(
        (
            "experiments --figure fig4",
            _module_main("repro.experiments", "--figure", "fig4", "--scale", "0.05"),
        )
    )
    points.append(
        ("experiments claims --help", _module_main("repro.experiments", "claims", "--help"))
    )
    points.append(("claims table at scale 0.1", _claims_scaled))
    points.append(
        (
            "experiments chaos --smoke",
            _module_main(
                "repro.experiments", "chaos", "--smoke", "--out", str(scratch / "chaos.json")
            ),
        )
    )
    for sweep in ("scale", "chaos-scale", "control"):
        points.append(
            (
                f"experiments {sweep} --smoke",
                _module_main(
                    "repro.experiments", sweep, "--smoke", "--workers", "1",
                    "--out", str(scratch / f"{sweep}.json"),
                ),
            )
        )
    for workload in ("paper_scalar", "scale_place", "scale_drive", "chaos_churn",
                     "service_saturate"):
        points.append(
            (
                f"bench.onepass {workload}",
                _module_main(
                    "bench.onepass", "--workload", workload, "--seed", "1",
                    "--scale", "0.05", "--trace", "1",
                ),
            )
        )
    points.append(
        (
            "service bench --smoke --inline",
            _module_main(
                "repro.service", "bench", "--smoke", "--inline", "--seed", "1",
                "--out", str(scratch / "service.json"),
            ),
        )
    )
    trace = str(scratch / "w.trc")
    points.append(
        (
            "workloads generate",
            _module_main("repro.workloads", "generate", "--scale", "0.02", "-o", trace),
        )
    )
    points.append(("workloads inspect", _module_main("repro.workloads", "inspect", trace)))
    # The one other gate that drives src (the rest only parse it).
    points.append(
        (
            "tools/check_relocation_equivalence.py",
            _script(ROOT / "tools" / "check_relocation_equivalence.py"),
        )
    )
    return points


def run_entry_points(entered: Set[Tuple[str, int]]) -> List[str]:
    """Run every entry point under the hook, printing each one's time;
    returns the failures."""
    failures: List[str] = []
    # The benchmark's load generator finds ``bench`` and ``repro`` only
    # through the environment, and the service pass pins this process.
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="check-reach-") as tmp:
        scratch = Path(tmp)
        os.chdir(ROOT)
        try:
            for label, run in entry_points(scratch):
                start = time.perf_counter()
                status = "ok"
                output = io.StringIO()
                with recording(entered), contextlib.redirect_stdout(
                    output
                ), contextlib.redirect_stderr(output):
                    try:
                        run()
                    except SystemExit as stop:
                        if stop.code not in (None, 0):
                            status = f"exit {stop.code}"
                    except Exception as exc:  # the ledger needs every run
                        status = f"{type(exc).__name__}: {exc}"
                        output.write(traceback.format_exc())
                if status != "ok":
                    tail = output.getvalue().strip().splitlines()[-8:]
                    failures.append("\n    ".join([f"{label}: {status}", *tail]))
                print(f"  {label:<38} {time.perf_counter() - start:6.2f} s  {status}")
        finally:
            os.chdir(cwd)
            if affinity is not None:
                os.sched_setaffinity(0, affinity)
    return failures


# ---------------------------------------------------------------------- #
# the allowlist
# ---------------------------------------------------------------------- #
def read_allowlist(path: Path) -> Tuple[Dict[Function, str], List[str]]:
    """``module:qualname  # reason`` lines → entries, plus format problems."""
    entries: Dict[Function, str] = {}
    problems: List[str] = []
    for number, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = (part.strip() for part in line.partition("#"))
        module, colon, qualname = name.partition(":")
        tag = reason.split(":", 1)[0].split()[0] if reason else ""
        if not colon or not qualname:
            problems.append(f"{path.name}:{number}: not `module:qualname  # reason`: {raw}")
        elif tag not in REASONS:
            problems.append(
                f"{path.name}:{number}: {name}: reason must start with one of "
                f"{', '.join(REASONS)}"
            )
        entries[(module, qualname)] = reason
    return entries, problems


def check(
    functions: Dict[Tuple[str, int], Function],
    entered: Set[Tuple[str, int]],
    allowlist: Dict[Function, str],
) -> Tuple[Dict[str, List[str]], List[str]]:
    """The unreached functions by module, and the gate's problems."""
    unreached = sorted(
        function for key, function in functions.items() if key not in entered
    )
    by_module: Dict[str, List[str]] = {}
    for module, qualname in unreached:
        by_module.setdefault(module, []).append(qualname)
    problems = [
        f"{module}:{qualname} — public, reached by no entry point and not "
        f"allowlisted (give it a caller, delete it, or allowlist it with a reason)"
        for module, qualname in unreached
        if is_gated((module, qualname)) and (module, qualname) not in allowlist
    ]
    defined = set(functions.values())
    missed = set(unreached)
    for function in sorted(allowlist):
        name = ":".join(function)
        if function not in defined:
            problems.append(f"{name} — allowlisted but not defined in src/ (delete the line)")
        elif function not in missed:
            problems.append(f"{name} — allowlisted but now reached (delete the line)")
    return by_module, problems


def main() -> int:
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)

    start = time.perf_counter()
    functions = defined_functions()
    entered: Set[Tuple[str, int]] = set()
    failures = run_entry_points(entered)
    resolved = {name: str(Path(name).resolve()) for name, _ in entered}
    entered = {(resolved[name], line) for name, line in entered}
    allowlist, problems = read_allowlist(ALLOWLIST)
    by_module, gate = check(functions, entered, allowlist)
    problems = [f"entry point failed: {line}" for line in failures] + problems + gate

    print("\nunreached functions ([a] = allowlisted):")
    for module, qualnames in sorted(by_module.items()):
        print(module)
        for qualname in qualnames:
            mark = " [a]" if (module, qualname) in allowlist else ""
            print(f"    {qualname}{mark}")
    unreached = sum(len(names) for names in by_module.values())
    if problems:
        for line in problems:
            print(line, file=sys.stderr)
        print(f"\n{len(problems)} reachability problem(s)", file=sys.stderr)
        return 1
    print(
        f"\nreach OK: {len(functions)} functions, {unreached} unreached "
        f"({len(allowlist)} allowlisted), {time.perf_counter() - start:.1f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
