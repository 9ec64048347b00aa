"""The reachability ledger's bookkeeping (``tools/check_reach.py``).

The entry-point run itself is CI's ``reach`` step; these cases check
how the gate reads src, the hook's records and the allowlist.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))
import check_reach  # noqa: E402


def _defs(source: str):
    return dict(check_reach._walk_defs(ast.parse(source), ""))


class TestWhatSrcDefines:
    def test_qualnames_follow_cpython(self):
        defs = _defs(
            "def f():\n"
            "    def inner():\n"
            "        pass\n"
            "class A:\n"
            "    def m(self):\n"
            "        return 1\n"
            "    class B:\n"
            "        async def n(self):\n"
            "            return 2\n"
        )
        assert sorted(defs) == ["A.B.n", "A.m", "f", "f.<locals>.inner"]

    @pytest.mark.parametrize(
        "body,stub",
        [
            ("    '''Doc.'''\n", True),
            ("    ...\n", True),
            ("    pass\n", True),
            ("    raise NotImplementedError\n", True),
            ("    raise NotImplementedError(f'{x} unsupported')\n", True),
            ("    raise ValueError('no')\n", False),
            ("    return 1\n", False),
            ("    '''Doc.'''\n    return 1\n", False),
        ],
        ids=[
            "docstring",
            "ellipsis",
            "pass",
            "raise-bare",
            "raise-call",
            "raise-other",
            "return",
            "docstring-return",
        ],
    )
    def test_stubs_are_not_functions_of_the_ledger(self, body, stub):
        (node,) = _defs("def f(x):\n" + body).values()
        assert check_reach._is_stub(node) is stub

    def test_abstract_methods_are_stubs(self):
        (node,) = _defs(
            "class A:\n    @abc.abstractmethod\n    def f(self):\n        return 1\n"
        ).values()
        assert check_reach._is_stub(node)

    def test_the_tree_defines_the_ledgers_own_entries(self):
        functions = check_reach.defined_functions()
        assert ("repro.engine.builder", "ExperimentSpec.build") in functions.values()
        # A decorated function is keyed by its first decorator's line,
        # as CPython's co_firstlineno is.
        from repro.engine.engine import ClusterEngine

        code = ClusterEngine.client.fget.__code__
        key = (str(Path(code.co_filename).resolve()), code.co_firstlineno)
        assert functions[key] == ("repro.engine.engine", "ClusterEngine.client")


@pytest.mark.parametrize(
    "function,gated",
    [
        (("repro.engine.engine", "ClusterEngine.run"), True),
        (("repro.core.hashing", "HashFamily.__getstate__"), True),
        (("repro.core.hashing", "HashFamily.__repr__"), False),
        (("repro.engine.engine", "ClusterEngine._route"), False),
        (("repro._lazy", "attach"), False),
        (("repro.experiments.fanout", "stream_map.<locals>.run"), False),
    ],
    ids=["method", "dunder", "repr", "private-method", "private-module", "nested"],
)
def test_gated_functions(function, gated):
    assert check_reach.is_gated(function) is gated


class TestGate:
    FUNCTIONS = {
        ("a.py", 1): ("repro.a", "used"),
        ("a.py", 5): ("repro.a", "unused"),
        ("a.py", 9): ("repro.a", "_helper"),
        ("a.py", 12): ("repro.a", "oracle"),
    }

    def test_unreached_public_function_fails_and_is_named(self):
        by_module, problems = check_reach.check(
            self.FUNCTIONS, {("a.py", 1)}, {("repro.a", "oracle"): "oracle: x"}
        )
        assert by_module == {"repro.a": ["_helper", "oracle", "unused"]}
        assert len(problems) == 1
        assert problems[0].startswith("repro.a:unused — public, reached by no entry point")

    def test_stale_and_unknown_allowlist_entries_fail(self):
        reached = {("a.py", 1), ("a.py", 5), ("a.py", 12)}
        allowlist = {("repro.a", "oracle"): "oracle: x", ("repro.a", "gone"): "fault"}
        _, problems = check_reach.check(self.FUNCTIONS, reached, allowlist)
        assert problems == [
            "repro.a:gone — allowlisted but not defined in src/ (delete the line)",
            "repro.a:oracle — allowlisted but now reached (delete the line)",
        ]

    def test_allowlist_lines_need_a_known_reason(self, tmp_path):
        path = tmp_path / "allow.txt"
        path.write_text(
            "# comment\n"
            "\n"
            "repro.a:f  # oracle: the reference\n"
            "repro.a:g  # serve\n"
            "repro.a:h  # because\n"
            "repro.a:i\n"
            "repro.a  # serve\n"
            "repro.a:j  # tested: only a test calls it\n"
            "repro.a:k  # ablation: only a benchmark runs it\n"
        )
        entries, problems = check_reach.read_allowlist(path)
        assert entries[("repro.a", "f")] == "oracle: the reference"
        assert ("repro.a", "g") in entries
        assert problems == [
            "allow.txt:5: repro.a:h: reason must start with one of "
            + ", ".join(check_reach.REASONS),
            "allow.txt:6: repro.a:i: reason must start with one of "
            + ", ".join(check_reach.REASONS),
            "allow.txt:7: not `module:qualname  # reason`: repro.a  # serve",
            # Surface only tests call is no reason to keep it.
            "allow.txt:8: repro.a:j: reason must start with one of "
            + ", ".join(check_reach.REASONS),
            # Nor is a comparator only a benchmark ran: it is a claim
            # (which the `claims` entry point reaches) or it goes.
            "allow.txt:9: repro.a:k: reason must start with one of "
            + ", ".join(check_reach.REASONS),
        ]

    def test_committed_allowlist_is_well_formed(self):
        entries, problems = check_reach.read_allowlist(check_reach.ALLOWLIST)
        assert problems == []
        defined = set(check_reach.defined_functions().values())
        assert set(entries) <= defined
        assert all(check_reach.is_gated(function) for function in entries)
