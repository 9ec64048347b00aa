"""Rendering and orchestration of the full figure suite."""

from __future__ import annotations

from typing import Dict, Optional

from .figures import FIGURES
from .figures.fig5 import Fig5Data

__all__ = ["run_figure", "run_all_figures"]


def run_figure(name: str, seed: int = 1, scale: float = 1.0) -> str:
    """Run one figure end-to-end and return its rendered text."""
    if name not in FIGURES:
        raise ValueError(f"unknown figure {name!r}; options: {sorted(FIGURES)}")
    mod = FIGURES[name]
    data = mod.run(seed=seed, scale=scale)
    return mod.render(data)


def run_all_figures(seed: int = 1, scale: float = 1.0) -> Dict[str, str]:
    """Run every figure; shares the synthetic run across 5/6/7/8.

    Returns figure name → rendered text, in paper order.
    """
    from .figures import fig4, fig5, fig6, fig7, fig8

    out: Dict[str, str] = {}
    data4 = fig4.run(seed=seed, scale=scale)
    out["fig4"] = fig4.render(data4)
    data5: Fig5Data = fig5.run(seed=seed, scale=scale)
    out["fig5"] = fig5.render(data5)
    out["fig6"] = fig6.render(fig6.run(fig5=data5))
    out["fig7"] = fig7.render(fig7.run(fig5=data5))
    out["fig8"] = fig8.render(fig8.run(fig5=data5))
    return out
