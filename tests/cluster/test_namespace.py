"""Namespace tree: resolution, splits, merges."""

from __future__ import annotations

import pytest

from repro.cluster import Namespace, normalize_path


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("/a//b/", "/a/b"),
            ("a/b", "/a/b"),
            ("/", "/"),
            ("", "/"),
            ("/x", "/x"),
        ],
    )
    def test_normalize(self, raw, expected):
        assert normalize_path(raw) == expected


class TestResolution:
    @pytest.fixture
    def ns(self):
        return Namespace(["/", "/home", "/home/alice", "/var/log"])

    def test_deepest_match_wins(self, ns):
        assert ns.resolve("/home/alice/thesis.tex") == "/home/alice"
        assert ns.resolve("/home/bob/notes") == "/home"
        assert ns.resolve("/var/log/syslog") == "/var/log"
        assert ns.resolve("/etc/passwd") == "/"

    def test_root_path_itself(self, ns):
        assert ns.resolve("/home") == "/home"

    def test_uncovered_path_raises(self):
        ns = Namespace(["/data"])
        with pytest.raises(LookupError):
            ns.resolve("/other/file")
        assert ns.resolve("/data/x") == "/data"

    def test_children_of(self, ns):
        assert ns.children_of("/home") == ["/home/alice"]
        assert ns.children_of("/") == ["/home", "/home/alice", "/var/log"]
        assert ns.children_of("/var/log") == []

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Namespace(["/a", "/a/"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Namespace([])


class TestSplitMerge:
    def test_split_changes_resolution(self):
        ns = Namespace(["/"])
        parent, new = ns.split("/projects/ml")
        assert (parent, new) == ("/", "/projects/ml")
        assert ns.resolve("/projects/ml/model.bin") == "/projects/ml"
        assert ns.resolve("/projects/other") == "/"

    def test_split_existing_rejected(self):
        ns = Namespace(["/", "/a"])
        with pytest.raises(ValueError):
            ns.split("/a")

    def test_split_uncovered_rejected(self):
        ns = Namespace(["/data"])
        with pytest.raises(LookupError):
            ns.split("/other/sub")

    def test_merge_restores_parent(self):
        ns = Namespace(["/", "/tmp"])
        absorber, removed = ns.merge("/tmp")
        assert (absorber, removed) == ("/", "/tmp")
        assert ns.resolve("/tmp/file") == "/"

    def test_merge_with_nested_children_rejected(self):
        ns = Namespace(["/", "/a", "/a/b"])
        with pytest.raises(ValueError, match="nested"):
            ns.merge("/a")
        ns.merge("/a/b")  # leaf first is fine
        ns.merge("/a")

    def test_merge_last_cover_rejected_and_rolled_back(self):
        ns = Namespace(["/data"])
        with pytest.raises(ValueError):
            ns.merge("/data")
        assert "/data" in ns.fileset_roots  # rollback kept the root

    def test_merge_unknown_rejected(self):
        ns = Namespace(["/"])
        with pytest.raises(ValueError):
            ns.merge("/ghost")

    def test_split_merge_roundtrip_preserves_resolution(self):
        ns = Namespace(["/", "/srv"])
        before = {p: ns.resolve(p) for p in ("/srv/a", "/x", "/srv/deep/q")}
        ns.split("/srv/deep")
        ns.merge("/srv/deep")
        after = {p: ns.resolve(p) for p in before}
        assert before == after


def spread_roots(n_filesets, fanout=4):
    """``n_filesets`` roots over a two-level tree, so resolution walks
    real prefixes rather than flat names."""
    return [f"/fs/d{i % fanout}/set{i:04d}" for i in range(n_filesets)]


class TestBalancedFactory:
    def test_count_and_resolution(self):
        ns = Namespace(spread_roots(50))
        assert len(ns.fileset_roots) == 50
        root = ns.fileset_roots[0]
        assert ns.resolve(root + "/some/file") == root

    def test_validation(self):
        with pytest.raises(ValueError):
            Namespace(spread_roots(0))

    def test_integrates_with_placement(self):
        """Paths resolve to file sets; file sets place via ANU."""
        from repro.core import ANUManager

        ns = Namespace(spread_roots(20))
        mgr = ANUManager(server_ids=[0, 1, 2])
        mgr.register_filesets(ns.fileset_roots)
        fs = ns.resolve(ns.fileset_roots[7] + "/dir/file.txt")
        assert mgr.assignment_of(fs) in (0, 1, 2)
