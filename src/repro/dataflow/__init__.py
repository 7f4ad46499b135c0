"""Dataflow descriptions: planar tiling and the PT-IS-CP family."""

from repro.dataflow.dataflows import (
    PT_IS_CP_DENSE,
    PT_IS_CP_SPARSE,
    PT_IS_DP_DENSE,
    Dataflow,
)
from repro.dataflow.tiling import (
    TilingPlan,
    pe_grid_for,
    plan_layer,
)

__all__ = [
    "Dataflow",
    "PT_IS_CP_DENSE",
    "PT_IS_CP_SPARSE",
    "PT_IS_DP_DENSE",
    "TilingPlan",
    "pe_grid_for",
    "plan_layer",
]
