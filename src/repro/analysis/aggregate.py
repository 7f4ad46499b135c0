"""Aggregation helpers shared by the experiments."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (ignores non-positive entries)."""
    filtered = [value for value in values if value > 0 and np.isfinite(value)]
    if not filtered:
        return 0.0
    return float(np.exp(np.mean(np.log(filtered))))
