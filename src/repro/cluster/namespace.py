"""The global namespace: a single tree partitioned into file sets.

"A shared-disk file system cluster usually uses a single global
namespace, which is partitioned into file sets. A file set is a
subtree of the global namespace." (§3)

Placement policies operate on *file sets*; clients operate on *paths*.
:class:`Namespace` is the bridge: it stores the partition of the tree
into file-set roots and resolves any path to its enclosing file set
(deepest-ancestor match), which is what a metadata client does before
addressing a server.

The tree also supports the administrative operations a real system
needs — carving a new file set out of an existing one (split) and
merging one back into its parent — each reporting exactly which subtree
moved so callers can re-register with their placement policy.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["Namespace", "normalize_path"]


def normalize_path(path: str) -> str:
    """Canonical form: leading slash, no trailing slash, no empties.

    >>> normalize_path("/a//b/")
    '/a/b'
    >>> normalize_path("a/b")
    '/a/b'
    """
    parts = [p for p in path.split("/") if p]
    return "/" + "/".join(parts)


class Namespace:
    """A global namespace partitioned into file-set subtrees.

    Parameters
    ----------
    fileset_roots:
        Paths of the initial file-set roots. They must be prefix-free
        *except* that nesting is allowed — a nested root carves its
        subtree out of the enclosing one (deepest match wins at
        resolution), exactly how file-set boundaries behave in
        shared-disk file systems.
    """

    def __init__(self, fileset_roots: Iterable[str]) -> None:
        roots = [normalize_path(r) for r in fileset_roots]
        if not roots:
            raise ValueError("namespace needs at least one file set")
        if len(set(roots)) != len(roots):
            raise ValueError("duplicate file-set roots")
        self._roots: set = set(roots)

    # ------------------------------------------------------------------ #
    @property
    def fileset_roots(self) -> List[str]:
        """All file-set roots, sorted."""
        return sorted(self._roots)

    # ------------------------------------------------------------------ #
    def resolve(self, path: str) -> str:
        """File set owning ``path``: the deepest root that prefixes it.

        Raises ``LookupError`` if no file set covers the path (the
        namespace's partition must cover whatever clients ask about —
        deployments anchor a catch-all at ``/``).
        """
        norm = normalize_path(path)
        probe = norm
        while True:
            if probe in self._roots:
                return probe
            if probe == "/":
                raise LookupError(f"no file set covers {path!r}")
            probe = probe.rsplit("/", 1)[0] or "/"

    def children_of(self, root: str) -> List[str]:
        """File-set roots nested (directly or not) inside ``root``."""
        norm = normalize_path(root)
        prefix = norm if norm.endswith("/") else norm + "/"
        return sorted(r for r in self._roots if r != norm and r.startswith(prefix))

    # ------------------------------------------------------------------ #
    # administrative operations
    # ------------------------------------------------------------------ #
    def split(self, new_root: str) -> Tuple[str, str]:
        """Carve a new file set at ``new_root`` out of its encloser.

        Returns ``(parent_fileset, new_fileset)``. Paths under
        ``new_root`` now resolve to the new file set; callers register
        the new name with their placement policy (the paper's
        indivisible unit just became two units).
        """
        norm = normalize_path(new_root)
        if norm in self._roots:
            raise ValueError(f"{norm!r} is already a file-set root")
        parent = self.resolve(norm)  # raises if nothing covers it
        self._roots.add(norm)
        return parent, norm

    def merge(self, root: str) -> Tuple[str, str]:
        """Dissolve the file set at ``root`` back into its encloser.

        Returns ``(absorbing_fileset, removed_fileset)``. Refuses to
        remove a root that still has nested file sets (they would be
        orphaned from their boundary semantics) and refuses to remove
        the last covering root of its subtree.
        """
        norm = normalize_path(root)
        if norm not in self._roots:
            raise ValueError(f"{norm!r} is not a file-set root")
        nested = self.children_of(norm)
        if nested:
            raise ValueError(
                f"cannot merge {norm!r}: nested file sets {nested} remain"
            )
        self._roots.discard(norm)
        try:
            absorber = self.resolve(norm)
        except LookupError:
            self._roots.add(norm)  # roll back: nothing would cover it
            raise ValueError(
                f"cannot merge {norm!r}: no enclosing file set would cover it"
            ) from None
        return absorber, norm
