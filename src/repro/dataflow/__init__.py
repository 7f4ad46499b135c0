"""Dataflow descriptions: loop nests, planar tiling and the PT-IS-CP family."""

from repro.dataflow.dataflows import (
    PT_IS_CP_DENSE,
    PT_IS_CP_SPARSE,
    PT_IS_DP_DENSE,
    Dataflow,
)
from repro.dataflow.loopnest import LoopNest, execute_loop_nest
from repro.dataflow.tiling import (
    TilingPlan,
    pe_grid_for,
    plan_layer,
)

__all__ = [
    "Dataflow",
    "LoopNest",
    "PT_IS_CP_DENSE",
    "PT_IS_CP_SPARSE",
    "PT_IS_DP_DENSE",
    "TilingPlan",
    "execute_loop_nest",
    "pe_grid_for",
    "plan_layer",
]
