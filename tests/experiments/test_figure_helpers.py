"""Figure-module helpers and the Figure 4 sanity contract."""

from __future__ import annotations

import pytest

from repro.experiments import claims
from repro.experiments.figures import fig4, fig5

SCALE = 0.08
SANITY = [claim for claim in claims.CLAIMS if ":" in claim.id]


@pytest.fixture(scope="module")
def runs():
    return claims.Runs(seed=4, scale=SCALE)


@pytest.fixture(scope="module")
def synth_data(runs):
    return fig5.Fig5Data(config=runs.config, results=runs.fig5)


@pytest.fixture(scope="module")
def trace_data(runs):
    return fig4.Fig4Data(config=runs.config, results=runs.fig4)


class TestSanityContract:
    """The paper's sanity contract, as the claims table states it: the
    trace run shows the synthetic run's scaling and tuning properties."""

    def test_sanity_checks_structure(self):
        # one claim per (workload, check) pair
        assert len(SANITY) == 6
        assert {claim.id.split(":")[0] for claim in SANITY} == {"trace", "synthetic"}

    def test_prescient_near_best_on_both_workloads(self, runs):
        for claim in SANITY:
            if claim.id.endswith(":prescient-near-best"):
                measured, bound, holds = claims.evaluate(claim, runs)
                assert holds, (claim.id, measured, bound)


class TestRenderers:
    def test_fig4_render_retitles(self, trace_data):
        text = fig4.render(trace_data)
        assert "Figure 4" in text
        assert "Figure 5" not in text

    def test_fig5_render_row_budget(self, synth_data):
        text = fig5.render(synth_data, max_rows=5)
        # downsampling respects the budget: each system block has at
        # most 5 + header rows of series
        block = text.split("[anu]")[1].split("[prescient]")[0]
        data_lines = [
            l for l in block.splitlines() if l.strip() and l.lstrip()[0].isdigit()
        ]
        assert len(data_lines) <= 6

    def test_fig5_convergence_property_exposed(self, synth_data):
        # may be None at tiny scale; the attribute itself must work
        conv = synth_data.anu_convergence_round
        assert conv is None or conv >= 1
