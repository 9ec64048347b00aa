"""Package inits re-export lazily (PEP 562) and still behave as eager ones.

Importing a package runs none of its submodules; a re-exported name
imports the one submodule that defines it on first access.
"""

from __future__ import annotations

import importlib
import sys

import pytest

LAZY = (
    "analysis",
    "cluster",
    "core",
    "distributed",
    "engine",
    "experiments",
    "faults",
    "metrics",
    "policies",
    "sim",
    "workloads",
)
#: ``repro.control`` builds its controller registry at import time, so it
#: stays eager; its re-exports must behave the same.
PACKAGES = LAZY + ("control",)


@pytest.mark.parametrize("name", PACKAGES)
class TestReexports:
    def test_every_public_name_resolves_and_is_listed(self, name):
        package = importlib.import_module(f"repro.{name}")
        listed = dir(package)
        assert package.__all__, name
        for attr in package.__all__:
            value = getattr(package, attr)
            assert attr in listed
            home = getattr(value, "__module__", None)
            if home is not None and home.startswith(f"repro.{name}."):
                assert getattr(sys.modules[home], attr) is value

    def test_import_star_binds_every_public_name(self, name):
        package = importlib.import_module(f"repro.{name}")
        namespace: dict = {}
        exec(f"from repro.{name} import *", namespace)
        for attr in package.__all__:
            assert namespace[attr] is getattr(package, attr)

    def test_unknown_name_is_an_attribute_error(self, name):
        package = importlib.import_module(f"repro.{name}")
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name  # noqa: B018
        assert not hasattr(package, "__no_such_dunder__")


def test_importing_the_packages_runs_no_submodule(run_fresh):
    out = run_fresh(
        "import importlib, sys\n"
        f"for name in {LAZY!r}:\n"
        "    importlib.import_module('repro.' + name)\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro')))\n"
    )
    assert out.strip() == str(sorted(["repro", "repro._lazy"] + [f"repro.{n}" for n in LAZY]))


def test_submodules_are_reachable_as_attributes(run_fresh):
    """``repro.engine.builder`` works before anything imported it, as it
    did when the package init imported every submodule."""
    out = run_fresh(
        "import repro.engine, repro.experiments\n"
        "print(repro.engine.builder.ExperimentSpec.__name__,\n"
        "      repro.experiments.figures.FIGURES['fig4'].__name__)\n"
    )
    assert out.strip() == "ExperimentSpec repro.experiments.figures.fig4"


def test_a_broken_submodule_import_is_not_masked(tmp_path, monkeypatch):
    """``pkg.missing`` is an AttributeError, but a submodule that fails
    on a missing dependency of its own raises that error."""
    package = tmp_path / "lazy_probe_pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from repro._lazy import attach\n"
        "__getattr__, __dir__, __all__ = attach(__name__, {'fine': ['VALUE']})\n"
    )
    (package / "fine.py").write_text("VALUE = 7\n")
    (package / "broken.py").write_text("import lazy_probe_missing_dependency\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        probe = importlib.import_module("lazy_probe_pkg")
        assert probe.VALUE == 7 and "VALUE" in vars(probe)
        with pytest.raises(AttributeError, match="missing"):
            probe.missing  # noqa: B018
        with pytest.raises(ModuleNotFoundError, match="lazy_probe_missing_dependency"):
            probe.broken  # noqa: B018
    finally:
        for name in [m for m in sys.modules if m.startswith("lazy_probe_pkg")]:
            del sys.modules[name]
