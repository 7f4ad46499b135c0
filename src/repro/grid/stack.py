"""Stacked model constants: one config across a whole stack of layers.

The analytical formulas of :mod:`repro.grid.evaluate`,
:mod:`repro.timeloop.energy` and :mod:`repro.scnn.dcnn` mix two kinds of
inputs: *density-dependent* quantities (swept per grid point) and
*shape-derived constants* — tiling plans, phase block sizes, event-count
footprints — that depend only on the (layer, config) pair.  This module
hoists the latter into numpy arrays, one :class:`ConfigLayerStack` per
config covering every layer at once, so the grid evaluator's broadcast
arithmetic never re-derives a plan or a footprint per density point.

Stacks are memoised on ``(specs, config)``: a warm grid evaluation (the
second sweep over the same arch x workload axes) skips straight to the
broadcast arithmetic.  The tiling plans underneath are shared with the
cycle-level simulator through :func:`repro.dataflow.tiling.plan_layer`'s
own memo, and the dense busy cycles come from the same
:func:`repro.scnn.dcnn.dense_busy_cycles` the per-layer simulator calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.arch.spec import AcceleratorConfig
from repro.dataflow.tiling import plan_layer
from repro.nn.layers import ConvLayerSpec
from repro.scnn.accumulator import expected_conflict_cycles
from repro.scnn.dcnn import dense_busy_cycles


@dataclass(frozen=True)
class ConfigLayerStack:
    """Shape-derived constants of every layer under one accelerator config.

    All per-layer attributes are int64 arrays of shape ``(layers,)`` except:

    - ``distinct_phase_sizes``, int64 ``(layers, width)``: each layer's
      distinct per-PE activation block sizes, ascending, zero-padded to the
      widest layer's count (planar tiling leaves at most a few per layer);
    - ``phase_size_index``, ``(layers, num_pes)`` in the smallest unsigned
      dtype that fits: each PE's column in ``distinct_phase_sizes``;
    - ``dense_busy``, int64 ``(layers, num_pes)``.

    ``phase_sizes`` gathers the per-PE block sizes back from the two.
    """

    config: AcceleratorConfig
    specs: Tuple[ConvLayerSpec, ...]
    num_pes: int
    #: Output-channel groups per layer (``ceil(K / Kc)``).
    num_groups: np.ndarray
    #: Connected input channels per output (``C / groups``).
    c_connected: np.ndarray
    #: Stride-phase sub-streams per layer (``stride ** 2``).
    phases: np.ndarray
    #: Expected weight elements per (group, channel, phase) block.
    weight_phase_block: np.ndarray
    #: Distinct per-(PE, phase) activation block sizes, ``(layers, width)``.
    distinct_phase_sizes: np.ndarray
    #: Each PE's column in ``distinct_phase_sizes``, ``(layers, num_pes)``.
    phase_size_index: np.ndarray
    #: Dense-baseline busy cycles per PE, ``(layers, num_pes)``.
    dense_busy: np.ndarray
    #: Expected accumulator-conflict stall cycles per issue step.
    stall_per_step: float
    # -- energy-model footprints (per layer) -----------------------------------
    dense_macs: np.ndarray
    weight_values: np.ndarray
    input_values: np.ndarray
    output_values: np.ndarray
    in_channels: np.ndarray

    @property
    def phase_sizes(self) -> np.ndarray:
        """Per-(PE, phase) activation block sizes, ``(layers, num_pes)``."""
        return np.take_along_axis(
            self.distinct_phase_sizes, self.phase_size_index, axis=1
        )


def config_layer_stack(
    specs: Tuple[ConvLayerSpec, ...], config: AcceleratorConfig
) -> ConfigLayerStack:
    """The (memoised) stacked constants of ``specs`` under ``config``."""
    return _config_layer_stack(tuple(specs), config)


@lru_cache(maxsize=256)
def _config_layer_stack(
    specs: Tuple[ConvLayerSpec, ...], config: AcceleratorConfig
) -> ConfigLayerStack:
    count = len(specs)
    num_pes = config.num_pes
    num_groups = np.empty(count, dtype=np.int64)
    c_connected = np.empty(count, dtype=np.int64)
    phases = np.empty(count, dtype=np.int64)
    weight_phase_block = np.empty(count, dtype=np.int64)
    phase_sizes = np.zeros((count, num_pes), dtype=np.int64)
    dense_busy = np.zeros((count, num_pes), dtype=np.int64)
    dense_macs = np.empty(count, dtype=np.int64)
    weight_values = np.empty(count, dtype=np.int64)
    input_values = np.empty(count, dtype=np.int64)
    output_values = np.empty(count, dtype=np.int64)
    in_channels = np.empty(count, dtype=np.int64)
    for index, spec in enumerate(specs):
        plan = plan_layer(
            spec, num_pes=num_pes, group_size=config.output_channel_group
        )
        layer_phases = spec.stride * spec.stride
        group_channels = min(config.output_channel_group, spec.out_channels)
        weight_block = group_channels * spec.filter_height * spec.filter_width
        num_groups[index] = plan.num_groups
        c_connected[index] = spec.in_channels // spec.groups
        phases[index] = layer_phases
        weight_phase_block[index] = max(1, int(round(weight_block / layer_phases)))
        tile_sizes = np.array(
            [tile.size for tile in plan.input_tiles], dtype=np.int64
        )
        phase_sizes[index] = np.maximum(
            tile_sizes // layer_phases, (tile_sizes > 0).astype(np.int64)
        )
        dense_busy[index] = dense_busy_cycles(spec, plan, config)
        dense_macs[index] = spec.multiplies
        weight_values[index] = spec.weight_count
        input_values[index] = spec.input_activation_count
        output_values[index] = spec.output_activation_count
        in_channels[index] = spec.in_channels
    distinct = [sorted(set(row)) for row in phase_sizes.tolist()]
    width = max(map(len, distinct), default=1)
    distinct_phase_sizes = np.zeros((count, width), dtype=np.int64)
    phase_size_index = np.empty((count, num_pes), dtype=np.min_scalar_type(width - 1))
    for index, sizes in enumerate(distinct):
        distinct_phase_sizes[index, : len(sizes)] = sizes
        phase_size_index[index] = np.searchsorted(sizes, phase_sizes[index])
    return ConfigLayerStack(
        config=config,
        specs=tuple(specs),
        num_pes=num_pes,
        num_groups=num_groups,
        c_connected=c_connected,
        phases=phases,
        weight_phase_block=weight_phase_block,
        distinct_phase_sizes=distinct_phase_sizes,
        phase_size_index=phase_size_index,
        dense_busy=dense_busy,
        stall_per_step=expected_conflict_cycles(
            config.multipliers_f * config.multipliers_i, config.accumulator_banks
        ),
        dense_macs=dense_macs,
        weight_values=weight_values,
        input_values=input_values,
        output_values=output_values,
        in_channels=in_channels,
    )


def clear_stack_cache() -> None:
    """Drop every memoised stack (benchmarks use this to time cold runs)."""
    _config_layer_stack.cache_clear()
