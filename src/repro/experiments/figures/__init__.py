"""One module per paper figure; each exposes ``run()`` and ``render()``."""

from . import fig4, fig5, fig6, fig7, fig8

#: Registry used by the CLI.
FIGURES = {
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
}

__all__ = ["fig4", "fig5", "fig6", "fig7", "fig8", "FIGURES"]
