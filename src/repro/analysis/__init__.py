"""Analysis helpers: network characteristics, density statistics, reporting,
and JSON serialization of simulation results for transport."""

from repro.analysis.aggregate import geometric_mean
from repro.analysis.metrics import (
    DensityRow,
    NetworkCharacteristics,
    density_table,
    network_characteristics,
)
from repro.analysis.reporting import format_table, format_value
from repro.analysis.serialization import (
    design_point_payload,
    design_points_payload,
    layer_payload,
    simulation_payload,
    to_jsonable,
)

__all__ = [
    "DensityRow",
    "NetworkCharacteristics",
    "density_table",
    "design_point_payload",
    "design_points_payload",
    "format_table",
    "format_value",
    "geometric_mean",
    "layer_payload",
    "network_characteristics",
    "simulation_payload",
    "to_jsonable",
]
