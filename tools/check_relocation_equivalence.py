#!/usr/bin/env python3
"""Relocation oracle: incremental must equal from-scratch, bit for bit.

``VectorANU`` re-resolves only the names an epoch delta can invalidate;
the claim the optimization stands on is that this is
*indistinguishable* from re-resolving the whole catalog. The oracle
here checks it after **every** reconfiguration — tuning rounds,
crash/recovery churn, full chaos timelines:

* a from-scratch probe loop over a ``SegmentTable`` rebuilt from the
  policy's current layout must equal the policy's ``_assign`` (owners)
  and ``_used`` (probe depths) — the loop reads dense
  ``ProbeMatrix.column()`` arrays of a matrix of its own, never the
  policy's probe store, so a wrong stored offset cannot satisfy both
  sides;
* the shed count and the emitted ``Move`` list must equal the diff of
  consecutive reference assignments.

:func:`audit_relocations` installs the check around every
``VectorANU._reshuffle`` inside a ``with`` block;
``tests/policies/test_relocation.py`` drives its golden and hypothesis
timelines through it, and this script runs the CI-sized sweeps' ANU
cells under it, once:

* every ``scale`` SMOKE_POINTS cell (tuning rounds only), and
* every ``chaos_scale`` SMOKE_POINTS cell (compiled churn + chaos).

Run from the repository root (CI does)::

    python tools/check_relocation_equivalence.py

Exit status 0 when every reconfiguration matched; 1 with one line per
divergence otherwise.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.core.vector import ProbeMatrix, SegmentTable  # noqa: E402
from repro.policies.base import Move  # noqa: E402
from repro.policies.vector import VectorANU  # noqa: E402


def reference_resolution(policy: VectorANU, probes: Optional[ProbeMatrix] = None):
    """``(owner, used)`` of the whole catalog, resolved from scratch.

    ``probes`` is the reference matrix to read dense columns from (so a
    sequence of audits hashes each round once); by default a fresh one
    over the policy's names. Either way nothing the policy hashed is
    consulted.
    """
    if probes is None:
        probes = ProbeMatrix(policy._names, policy.hash_family)
    table = SegmentTable.from_layout(policy.layout, policy._slot)
    owner = np.full(len(probes), -1, dtype=np.int64)
    used = np.zeros(len(probes), dtype=np.int64)
    unresolved = np.arange(len(probes))
    for round_ in range(policy.hash_family.max_probes):
        if unresolved.size == 0:
            break
        slots = table.locate(probes.column(round_)[unresolved])
        hit = (slots >= 0) & ~policy._blocked[np.maximum(slots, 0)]
        owner[unresolved[hit]] = slots[hit]
        used[unresolved[hit]] = round_ + 1
        unresolved = unresolved[~hit]
    return owner, used


def oracle_problems(
    policy: VectorANU,
    before: np.ndarray,
    sheds: int,
    moves: List[Move],
    what: str,
    probes: Optional[ProbeMatrix] = None,
) -> List[str]:
    """Divergences of one reconfiguration from the from-scratch oracle.

    ``before`` is the reference assignment of the previous epoch,
    ``sheds`` what the round added to ``total_sheds``, ``moves`` what
    it emitted.
    """
    owner, used = reference_resolution(policy, probes)
    problems = []
    if not np.array_equal(owner, policy._assign):
        bad = int(np.count_nonzero(owner != policy._assign))
        problems.append(f"{what}: {bad} assignments differ from the reference")
    if not np.array_equal(used, policy._used):
        bad = int(np.count_nonzero(used != policy._used))
        problems.append(f"{what}: {bad} probe depths differ from the reference")
    changed = np.flatnonzero(before != owner)
    if sheds != changed.size:
        problems.append(f"{what}: shed {sheds} file sets, reference moved {changed.size}")
    if policy.emit_moves:
        names, sids = policy._names, policy.server_ids
        expected = [Move(names[i], sids[before[i]], sids[owner[i]]) for i in changed]
        if moves != expected:
            problems.append(
                f"{what}: emitted {len(moves)} moves, reference diff has {len(expected)}"
                if len(moves) != len(expected)
                else f"{what}: emitted moves differ from the reference diff"
            )
    return problems


@contextmanager
def audit_relocations() -> Iterator[List[str]]:
    """Check every ``VectorANU`` reconfiguration inside the block.

    Yields the list the divergences accumulate in (empty = every round
    matched the oracle).
    """
    problems: List[str] = []
    reshuffle = VectorANU._reshuffle
    # One reference matrix per audited placement: dense columns are
    # hashed once and reused by every later epoch's check.
    references: Dict[int, ProbeMatrix] = {}

    def audited(self, kind="tune", changed_sids=None):
        # The assignment entering a round is the previous reference:
        # placement resolves from scratch, and every later epoch was
        # held to the oracle by this same check.
        before = self._assign.copy()
        sheds = self.total_sheds
        moves = reshuffle(self, kind, changed_sids)
        probes = references.get(id(self))
        if probes is None or probes.names is not self._names:
            probes = references[id(self)] = ProbeMatrix(self._names, self.hash_family)
        problems.extend(
            oracle_problems(
                self, before, self.total_sheds - sheds, moves,
                f"epoch {self.epoch} ({kind})", probes,
            )
        )
        return moves

    VectorANU._reshuffle = audited
    try:
        yield problems
    finally:
        VectorANU._reshuffle = reshuffle


def main() -> int:
    from repro.experiments.chaos_scale import (
        SMOKE_POINTS as CHAOS_POINTS,
        run_chaos_scale_point,
    )
    from repro.experiments.scale import SMOKE_POINTS, run_scale_point
    from repro.experiments.sweep import format_point_label

    def label(p) -> str:
        return format_point_label(p.n_servers, p.n_filesets)

    cells = [(f"scale {label(p)}", run_scale_point, p) for p in SMOKE_POINTS]
    cells += [(f"chaos-scale {label(p)}", run_chaos_scale_point, p) for p in CHAOS_POINTS]
    failed = 0
    lines = []
    for label, run, point in cells:
        with audit_relocations() as problems:
            row = run(point, "anu", seed=1)
        if not row["relocated"]:
            problems.append("no reconfiguration re-resolved anything; nothing was checked")
        for line in problems:
            print(f"{label}: {line}", file=sys.stderr)
        failed += len(problems)
        lines.append(
            f"  {label}: re-resolved {row['relocated']} names "
            f"({100.0 * row['relocate_fraction']:.1f}% of the from-scratch work)"
        )
    if failed:
        print(f"\n{failed} equivalence violation(s)", file=sys.stderr)
        return 1
    print(f"relocation equivalence OK: {len(cells)} cells, every epoch matches the oracle")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
