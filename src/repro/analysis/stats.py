"""Statistical helpers for experiment analysis.

Multi-seed experiment repetitions report each mean with its standard
error (the robustness-over-seeds benchmark's error bars).
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

__all__ = ["mean_sem"]


def mean_sem(values: Sequence[float]) -> Tuple[float, float]:
    """Mean and standard error of the mean."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return math.nan, math.nan
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))
