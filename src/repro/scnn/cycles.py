"""Vectorised cycle-level performance model of the SCNN PE array.

The model reproduces, without touching individual data elements, the cycle
count the functional simulator measures:

* for every (PE, input channel) the number of ``I``-wide compressed
  activation vectors, and for every (output-channel group, input channel) the
  number of ``F``-wide compressed weight vectors, are computed from non-zero
  counts;
* a PE's busy cycles for one output-channel group are the sum over input
  channels of ``act_vectors x weight_vectors`` (each pair is one Cartesian-
  product issue step), plus accumulator-bank stalls and the drain of the
  accumulator buffers into the OARAM;
* the PEs synchronise at the end of every output-channel group (halo
  exchange), so the layer's cycle count is the sum over groups of the
  *maximum* per-PE busy count — the difference between a PE's busy cycles and
  that maximum is the idle (barrier) time reported in Figure 9.

Everything is a handful of numpy matrix products over the integral-image
tile counts from :mod:`repro.dataflow.tiling` — no Python-level element
iteration anywhere on the hot path — so whole networks simulate in
milliseconds, and the simulation engine can batch layers freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.arch.registry import SCNN_CONFIG
from repro.arch.spec import AcceleratorConfig
from repro.dataflow.tiling import (
    activation_phase_nonzeros,
    plan_layer,
    weight_phase_nonzeros,
)
from repro.nn.layers import ConvLayerSpec
from repro.scnn.accumulator import expected_conflict_cycles


@dataclass
class LayerCycleResult:
    """Cycle-level statistics of one layer on the SCNN array."""

    spec: ConvLayerSpec
    config_name: str
    cycles: int
    busy_cycles_per_pe: np.ndarray
    group_cycles: np.ndarray
    issue_steps: int
    products: int
    multiplier_utilization: float
    busy_utilization: float
    idle_fraction: float
    conflict_stall_cycles: int
    weight_vector_fetches: int
    activation_vector_fetches: int
    weight_nonzeros: int
    activation_nonzeros: int

    @property
    def busy_cycles(self) -> int:
        return int(self.busy_cycles_per_pe.sum())


def _group_channel_weight_counts(
    weights: np.ndarray, spec: ConvLayerSpec, group_size: int
) -> np.ndarray:
    """Non-zero weights per (output-channel group, *global* input channel, phase).

    For grouped convolutions (AlexNet conv2/4/5) the returned array is zero
    for (group, channel) pairs that are not connected, which makes the
    downstream matrix products automatically honour group connectivity.  The
    trailing axis is the stride-phase decomposition (a single phase for
    stride-1 layers).
    """
    counts_local = weight_phase_nonzeros(
        weights, group_size, spec.stride, spec.padding
    )  # (G, C/groups, phases)
    num_groups, c_local, phases = counts_local.shape
    if spec.groups == 1:
        return counts_local
    counts = np.zeros((num_groups, spec.in_channels, phases), dtype=np.int64)
    k_per_filter_group = spec.out_channels // spec.groups
    for group in range(num_groups):
        k_lo = group * group_size
        filter_group = min(k_lo // k_per_filter_group, spec.groups - 1)
        c_lo = filter_group * c_local
        counts[group, c_lo : c_lo + c_local] = counts_local[group]
    return counts


def simulate_layer_cycles(
    spec: ConvLayerSpec,
    weights: np.ndarray,
    activations: np.ndarray,
    config: AcceleratorConfig = SCNN_CONFIG,
    *,
    integrals: Optional[Sequence[np.ndarray]] = None,
) -> LayerCycleResult:
    """Estimate SCNN cycles for one layer from its actual operand sparsity.

    Only the operands' non-zero structure is read, so ``weights`` and
    ``activations`` may be their bool masks.  ``integrals`` are the
    activation mask's :func:`~repro.dataflow.tiling.phase_integral_images`,
    when the caller has built them already.
    """
    weights = np.asarray(weights, dtype=bool)
    activations = np.asarray(activations, dtype=bool)
    plan = plan_layer(
        spec, num_pes=config.num_pes, group_size=config.output_channel_group
    )

    f_width = config.multipliers_f
    i_width = config.multipliers_i

    weight_counts = _group_channel_weight_counts(
        weights, spec, config.output_channel_group
    )  # (G, C, phases)
    act_counts = activation_phase_nonzeros(
        activations, plan, spec.stride, spec.padding, integrals=integrals
    )  # (P, C, phases)

    weight_vectors = -(-weight_counts // f_width)  # ceil division
    act_vectors = -(-act_counts // i_width)

    # Issue steps per (PE, group): every activation vector meets every weight
    # vector of the same input channel *and matching stride phase*.
    steps = np.einsum("pcs,gcs->pg", act_vectors, weight_vectors)
    products = np.einsum("pcs,gcs->pg", act_counts, weight_counts)

    # Accumulator-bank contention: with the default provisioning
    # (banks = 2 x F x I) the per-step stall is zero; smaller bank counts add
    # an expected stall per issue step (see the banking ablation).
    stall_per_step = expected_conflict_cycles(
        f_width * i_width, config.accumulator_banks
    )
    conflict_stalls = steps * stall_per_step

    busy = steps + conflict_stalls
    # Drain + PPU overhead once per (PE, group) that did any work.
    busy = busy + (steps > 0) * config.drain_overhead_cycles

    group_cycles = busy.max(axis=0)  # (G,)
    group_cycles = group_cycles + (group_cycles > 0) * config.barrier_overhead_cycles
    total_cycles = int(np.ceil(group_cycles.sum()))

    busy_per_pe = busy.sum(axis=1)
    total_products = int(products.sum())
    total_steps = int(steps.sum())
    busy_utilization = 0.0
    if busy_per_pe.sum() > 0:
        busy_utilization = total_products / (
            float(busy_per_pe.sum()) * config.multipliers_per_pe
        )
    # Figure 9 reports utilization against wall-clock time across the whole
    # array, which folds barrier idling and unoccupied PEs into the number.
    utilization = 0.0
    if total_cycles > 0:
        utilization = total_products / (
            float(total_cycles) * plan.num_pes * config.multipliers_per_pe
        )
    idle = 0.0
    denom = total_cycles * plan.num_pes
    if denom > 0:
        idle = 1.0 - float(busy_per_pe.sum()) / denom
        idle = max(0.0, min(1.0, idle))

    # Buffer traffic the energy model consumes.
    weight_fifo_fetches = total_steps
    activation_fetches = int(act_vectors.sum()) * weight_counts.shape[0]

    return LayerCycleResult(
        spec=spec,
        config_name=config.name,
        cycles=total_cycles,
        busy_cycles_per_pe=np.asarray(np.ceil(busy_per_pe), dtype=np.int64),
        group_cycles=np.asarray(np.ceil(group_cycles), dtype=np.int64),
        issue_steps=total_steps,
        products=total_products,
        multiplier_utilization=float(utilization),
        busy_utilization=float(busy_utilization),
        idle_fraction=float(idle),
        conflict_stall_cycles=int(np.ceil(conflict_stalls.sum())),
        weight_vector_fetches=weight_fifo_fetches,
        activation_vector_fetches=activation_fetches,
        weight_nonzeros=int(np.count_nonzero(weights)),
        activation_nonzeros=int(np.count_nonzero(activations)),
    )
