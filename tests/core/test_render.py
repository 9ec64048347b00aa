"""ASCII layout rendering."""

from __future__ import annotations

import pytest

from repro.core import IntervalLayout
from repro.core.layout import LayoutEngine
from repro.core.render import render_layout


class TestRenderLayout:
    def test_cell_counts(self):
        layout = IntervalLayout.initial([0, 1])
        art = render_layout(layout, cells_per_partition=4).splitlines()[0]
        body = art.split("   ")[0]
        assert body.count("|") == layout.n_partitions + 1
        cells = body.replace("|", "")
        assert len(cells) == layout.n_partitions * 4

    def test_mapped_fraction_matches_glyphs(self):
        layout = IntervalLayout.initial([0, 1, 2])
        art = render_layout(layout, cells_per_partition=8).splitlines()[0]
        cells = art.split("   ")[0].replace("|", "")
        mapped_cells = sum(1 for c in cells if c != ".")
        assert mapped_cells / len(cells) == pytest.approx(0.5, abs=0.05)

    def test_legend_lists_servers(self):
        layout = IntervalLayout.initial(["a", "b"])
        art = render_layout(layout)
        assert "'a'" in art and "'b'" in art

    def test_reflects_scaling(self):
        layout = IntervalLayout.initial([0, 1])
        engine = LayoutEngine()
        engine.apply_targets(layout, {0: 4.0, 1: 1.0})
        cells = render_layout(layout, 8).splitlines()[0].split("   ")[0].replace("|", "")
        zeros = cells.count("0")
        ones = cells.count("1")
        assert zeros == pytest.approx(4 * ones, abs=3)

    def test_validation(self):
        layout = IntervalLayout.initial([0])
        with pytest.raises(ValueError):
            render_layout(layout, cells_per_partition=0)

