"""The claims table: its verdicts, exit code and bookkeeping.

A small fake table over a fake run drives :func:`claims.report`; the
real table is checked for unique ids and for sections that exist in
EXPERIMENTS.md. ``python -m repro.experiments claims`` runs the real
table at full scale (CI's paper-shape job).
"""

from __future__ import annotations

import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.experiments import claims
from repro.experiments.claims import Claim

REPO = Path(__file__).resolve().parents[2]
RUNS = SimpleNamespace(cell={"value": 3.0})


def fake(claim_id: str, op: str, bound: float, known_failure: str = "") -> Claim:
    return Claim(
        claim_id, "Figure 4", "cell", op, lambda d: (d["value"], bound), known_failure
    )


class TestReport:
    def test_holding_claims_exit_0(self, capsys):
        table = [fake("small", "<", 5.0), fake("known-bad", ">", 5.0, "ROADMAP item 0")]
        assert claims.report(table, RUNS) == 0
        out = capsys.readouterr().out
        assert "known failure (ROADMAP item 0)" in out
        assert "2 claims, 1 of them known failures" in out

    def test_a_failing_claim_exits_1_and_is_named(self, capsys):
        assert claims.report([fake("small", "<", 5.0), fake("big", ">", 5.0)], RUNS) == 1
        out = capsys.readouterr().out
        assert re.search(r"big\s+Figure 4\s+3\s+> 5\s+FAIL", out), out
        assert out.rstrip().endswith("wrong: big")

    def test_a_known_failure_that_holds_exits_1(self, capsys):
        table = [fake("fixed", "<", 5.0, "ROADMAP item 0")]
        assert claims.report(table, RUNS) == 1
        out = capsys.readouterr().out
        assert "HOLDS: drop the mark" in out
        assert out.rstrip().endswith("wrong: fixed")

    def test_evaluate_applies_the_op(self):
        assert claims.evaluate(fake("eq", "==", 3.0), RUNS) == (3.0, 3.0, True)
        assert claims.evaluate(fake("ge", ">=", 3.5), RUNS) == (3.0, 3.5, False)

    def test_the_command_takes_no_flags(self):
        with pytest.raises(SystemExit):
            claims.main(["--scale", "0.1"])


class TestTable:
    def test_ids_are_unique(self):
        ids = [claim.id for claim in claims.CLAIMS]
        assert len(ids) == len(set(ids))

    def test_every_section_is_a_heading_of_experiments_md(self):
        headings = {
            re.split(r" — | \(", line[3:].strip(), maxsplit=1)[0]
            for line in (REPO / "EXPERIMENTS.md").read_text().splitlines()
            if line.startswith("## ")
        }
        assert {claim.section for claim in claims.CLAIMS} <= headings

    def test_every_claim_names_a_producer_and_an_op(self):
        for claim in claims.CLAIMS:
            assert hasattr(claims.Runs, claim.run), claim.id
            assert claim.op in claims.OPS, claim.id

    def test_only_the_two_trace_sanity_checks_are_known_failures(self):
        known = [claim.id for claim in claims.CLAIMS if claim.known_failure]
        assert known == ["trace:simple-weakest-degrades", "trace:prescient-near-best"]
