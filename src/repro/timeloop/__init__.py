"""TimeLoop: the analytical model for CNN accelerator design-space exploration.

The paper complements its cycle-level simulator with "TimeLoop, a detailed
analytical model for CNN accelerators" that computes cycle counts from a
bottleneck analysis and energy from per-event costs derived from synthesis.
This package provides the same three capabilities:

* :mod:`repro.timeloop.model` — analytical cycle estimates for the SCNN and
  dense dataflows as a function of layer shape and operand density (used for
  the Figure 7 density sweep).
* :mod:`repro.timeloop.energy` — per-event energy accounting for SCNN, DCNN
  and DCNN-opt (Figures 7b and 10).
* :mod:`repro.timeloop.area` — area model reproducing Tables III and IV.
"""

from repro.timeloop.dse import (
    DesignPoint,
    default_candidates,
    pareto_frontier,
    sweep,
)
from repro.timeloop.area import (
    PE_AREA_BREAKDOWN,
    accelerator_area_mm2,
    pe_area_mm2,
    table_iv_configurations,
)
from repro.timeloop.energy import (
    EnergyBreakdown,
    EnergyTable,
    EventCounts,
    count_layer_events,
    layer_energy,
)
from repro.timeloop.model import (
    AnalyticalLayerEstimate,
    estimate_dense_layer,
    estimate_scnn_layer,
)

__all__ = [
    "AnalyticalLayerEstimate",
    "DesignPoint",
    "EnergyBreakdown",
    "EnergyTable",
    "EventCounts",
    "PE_AREA_BREAKDOWN",
    "accelerator_area_mm2",
    "count_layer_events",
    "default_candidates",
    "estimate_dense_layer",
    "estimate_scnn_layer",
    "layer_energy",
    "pareto_frontier",
    "pe_area_mm2",
    "sweep",
    "table_iv_configurations",
]
