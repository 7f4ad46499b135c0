"""Analytical (TimeLoop-style) cycle estimates from layer shape and density.

Where the cycle-level model in :mod:`repro.scnn.cycles` consumes actual
tensors, this model consumes only the layer shape and the operand densities,
computing expected vector-fetch counts from the binomial distribution of
non-zeros within each compressed block.  It is what the Figure 7 density
sweep uses, and it doubles as a fast design-space exploration tool (PE count,
multiplier array shape, accumulator banking).

The SCNN formulas live in :func:`repro.grid.scnn_cycle_grid`, which
evaluates whole layers x densities grids; :func:`estimate_scnn_layer` is
one cell of it.  The dense estimate reads the dense baseline model of
:mod:`repro.scnn.dcnn`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.arch.registry import DCNN_CONFIG, SCNN_CONFIG, resolve_config
from repro.arch.spec import AcceleratorConfig
from repro.nn.layers import ConvLayerSpec
from repro.scnn.dcnn import simulate_dcnn_layer


@dataclass(frozen=True)
class AnalyticalLayerEstimate:
    """Analytical estimate of one layer on one accelerator."""

    spec_name: str
    config_name: str
    cycles: float
    products: float
    multiplier_utilization: float
    idle_fraction: float


def estimate_scnn_layer(
    spec: ConvLayerSpec,
    *,
    weight_density: float,
    activation_density: float,
    config: Union[AcceleratorConfig, str] = SCNN_CONFIG,
) -> AnalyticalLayerEstimate:
    """Expected SCNN cycles for one layer at the given operand densities.

    One cell of :func:`repro.grid.scnn_cycle_grid`, the model's only
    implementation.  ``config`` accepts a registered architecture name
    (resolved through :mod:`repro.arch.registry`) in place of a config
    object.
    """
    config = resolve_config(config)
    if not 0.0 < weight_density <= 1.0:
        raise ValueError(f"weight_density must be in (0, 1], got {weight_density}")
    if not 0.0 < activation_density <= 1.0:
        raise ValueError(
            f"activation_density must be in (0, 1], got {activation_density}"
        )
    # Imported here: the grid evaluator imports this module's estimate type.
    from repro.grid.evaluate import scnn_cycle_grid

    grid = scnn_cycle_grid(
        (spec,), config, [[weight_density]], [[activation_density]]
    )
    return AnalyticalLayerEstimate(
        spec_name=spec.name,
        config_name=config.name,
        cycles=float(grid.cycles[0, 0]),
        products=float(grid.products[0, 0]),
        multiplier_utilization=float(grid.multiplier_utilization[0, 0]),
        idle_fraction=float(grid.idle_fraction[0, 0]),
    )


def estimate_dense_layer(
    spec: ConvLayerSpec,
    config: Union[AcceleratorConfig, str] = DCNN_CONFIG,
) -> AnalyticalLayerEstimate:
    """Expected dense-baseline cycles (density independent)."""
    config = resolve_config(config)
    result = simulate_dcnn_layer(spec, config)
    return AnalyticalLayerEstimate(
        spec_name=spec.name,
        config_name=config.name,
        cycles=float(result.cycles),
        products=float(result.multiplies),
        multiplier_utilization=result.multiplier_utilization,
        idle_fraction=result.idle_fraction,
    )
