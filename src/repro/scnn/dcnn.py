"""Dense baseline accelerators: DCNN and DCNN-opt (PT-IS-DP-dense).

The dense baseline provisions the same 1,024 multipliers as SCNN but operates
on uncompressed data with a dot-product inner operation: every weight and
activation — zero or not — occupies a multiplier slot.  DCNN-opt adds two
energy optimisations (zero-operand gating and DRAM activation compression)
that do not change the cycle count, so both share this performance model.

A well-provisioned dense accelerator keeps its multipliers busy except for
edge effects: each PE processes its planar tile's output pixels, and for
every (output pixel, output channel) pair it streams ``ceil(C' * R * S / F)``
dot-product steps; the ``I`` lanes of the multiplier array are filled across
(pixel, output-channel) pairs by the layer sequencer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.arch.registry import DCNN_CONFIG, resolve_config
from repro.arch.spec import AcceleratorConfig
from repro.dataflow.tiling import TilingPlan, plan_layer
from repro.nn.layers import ConvLayerSpec


@dataclass
class DenseLayerResult:
    """Cycle statistics of one layer on the dense DCNN baseline."""

    spec: ConvLayerSpec
    config_name: str
    cycles: int
    busy_cycles_per_pe: np.ndarray
    multiplies: int
    multiplier_utilization: float
    idle_fraction: float


def simulate_dcnn_layer(
    spec: ConvLayerSpec,
    config: Union[AcceleratorConfig, str] = DCNN_CONFIG,
    *,
    plan: Optional[TilingPlan] = None,
) -> DenseLayerResult:
    """Cycle count of one layer on the dense baseline.

    Only the layer shape matters — the dense dataflow performs every multiply
    regardless of operand values.  ``config`` accepts a registered
    architecture name (e.g. ``"DCNN-opt"``) in place of a config object.
    """
    config = resolve_config(config)
    if plan is None:
        pe_rows, pe_cols = config.pe_grid
        plan = plan_layer(
            spec,
            num_pes=config.num_pes,
            group_size=config.output_channel_group,
            pe_rows=pe_rows,
            pe_cols=pe_cols,
        )
    busy = dense_busy_cycles(spec, plan, config)
    cycles, utilization, idle = dense_cycle_metrics(
        busy, spec.multiplies, plan.num_pes, config.multipliers_per_pe
    )
    return DenseLayerResult(
        spec=spec,
        config_name=config.name,
        cycles=int(cycles),
        busy_cycles_per_pe=busy,
        multiplies=spec.multiplies,
        multiplier_utilization=float(utilization),
        idle_fraction=float(idle),
    )


def dense_busy_cycles(
    spec: ConvLayerSpec, plan: TilingPlan, config: AcceleratorConfig
) -> np.ndarray:
    """Busy cycles of every PE for one layer, ``(num_pes,)`` int64.

    A PE owning ``P`` output pixels streams ``ceil(P * K * steps / I)``
    cycles, where ``steps = ceil(C' * R * S / F)`` dot-product steps per
    output; a PE with an empty tile stays idle.
    """
    dot_steps = -(
        -(spec.in_channels // spec.groups * spec.filter_height * spec.filter_width)
        // config.multipliers_f
    )
    output_sizes = np.array([tile.size for tile in plan.output_tiles], dtype=np.int64)
    outputs = output_sizes * spec.out_channels
    return np.where(
        output_sizes > 0, -(-outputs * dot_steps // config.multipliers_i), 0
    )


def dense_cycle_metrics(
    busy: np.ndarray, multiplies, num_pes: int, multipliers_per_pe: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cycles, multiplier utilization and idle fraction from per-PE busy cycles.

    Reduces the last (per-PE) axis of ``busy``, so the same arithmetic
    serves one layer (``(num_pes,)``, as :func:`simulate_dcnn_layer` calls
    it) and a stack of layers (``(layers, num_pes)``, as
    :func:`repro.grid.dense_cycle_grid` does).  The layer takes as long as
    its slowest PE.
    """
    cycles = busy.max(axis=-1)
    live = cycles > 0
    utilization = np.zeros(np.shape(cycles))
    np.divide(
        multiplies,
        cycles.astype(np.float64) * num_pes * multipliers_per_pe,
        out=utilization,
        where=live,
    )
    busy_ratio = np.zeros(np.shape(cycles))
    np.divide(busy.sum(axis=-1), cycles * num_pes, out=busy_ratio, where=live)
    idle = np.where(live, np.maximum(0.0, 1.0 - busy_ratio), 0.0)
    return cycles, utilization, idle
