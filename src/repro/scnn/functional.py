"""Element-exact functional simulator of the PT-IS-CP-sparse dataflow.

This simulator performs the actual computation the SCNN hardware would
perform, step by step:

1. the layer is planar-tiled across the PE array,
2. each PE walks output-channel groups, and within a group walks its input
   channels, fetching vectors of ``I`` non-zero activations and ``F`` non-zero
   weights from the compressed streams,
3. each fetch pair issues an ``F x I`` Cartesian product whose output
   coordinates are computed from the operand coordinates,
4. the products are scattered into the PE's banked accumulator (bank
   conflicts are measured), with products that fall into the output halo
   tracked separately,
5. at the end of each group the accumulators are drained, halo regions are
   exchanged (summed) with neighbouring PEs, and the post-processing unit
   applies ReLU and re-compresses the output activations.

Because it is element-exact it is slow; it exists to *validate* the dataflow
(its output must match the dense reference convolution bit-for-bit in double
precision) and to measure microarchitectural statistics (conflict histograms,
halo traffic) on small layers.  The fast model in :mod:`repro.scnn.cycles`
reproduces its cycle counts without touching individual elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.arch.registry import SCNN_CONFIG
from repro.arch.spec import AcceleratorConfig
from repro.dataflow.tiling import TilingPlan, plan_layer
from repro.nn.layers import ConvLayerSpec
from repro.scnn.accumulator import BankedAccumulator, ConflictStatistics
from repro.tensor.coordinates import output_coordinate
from repro.tensor.formats import CompressedActivations


@dataclass
class FunctionalResult:
    """Outcome of one functional-simulation run of a single layer."""

    spec: ConvLayerSpec
    output: np.ndarray
    output_pre_activation: np.ndarray
    cycles: int
    pe_cycles: np.ndarray
    busy_cycles: np.ndarray
    multiplies: int
    multiplier_utilization: float
    conflict_statistics: ConflictStatistics
    halo_products: int
    output_density: float
    oaram_bits: int
    group_cycles: List[int] = field(default_factory=list)

    @property
    def idle_fraction(self) -> float:
        """Fraction of PE-cycles spent waiting at inter-PE barriers."""
        total = self.cycles * len(self.pe_cycles)
        if total == 0:
            return 0.0
        return 1.0 - float(self.busy_cycles.sum()) / total


def _weight_stream(
    weights: np.ndarray,
    spec: ConvLayerSpec,
    group_size: int,
) -> Dict[Tuple[int, int, int], List[Tuple[int, int, int, float]]]:
    """Compressed weight streams keyed by (group, input channel, stride phase).

    Each stream lists ``(k, s, r, value)`` for the non-zero weights in raster
    order (k-major, then filter row, then filter column), i.e. the order the
    weight FIFO would deliver them in.  Channel-group connectivity (AlexNet's
    grouped convolutions) is honoured: a stream is empty when the input
    channel does not feed the output channels of the group.  For strided
    layers the stream is split by stride phase so that every Cartesian
    product pairs an activation only with weights that can produce a valid
    output for it; the phase index is the *activation* phase the sub-stream
    pairs with.
    """
    num_k = spec.out_channels
    c_per_group = spec.in_channels // spec.groups
    k_per_group = num_k // spec.groups
    num_groups = -(-num_k // group_size)
    stride = spec.stride
    streams: Dict[Tuple[int, int, int], List[Tuple[int, int, int, float]]] = {}
    for group in range(num_groups):
        k_lo = group * group_size
        k_hi = min(num_k, k_lo + group_size)
        for c in range(spec.in_channels):
            for phase in range(stride * stride):
                streams[(group, c, phase)] = []
            for k in range(k_lo, k_hi):
                filter_group = k // k_per_group
                c_lo = filter_group * c_per_group
                if not c_lo <= c < c_lo + c_per_group:
                    continue
                local_c = c - c_lo
                plane = weights[k, local_c]
                for s in range(spec.filter_height):
                    for r in range(spec.filter_width):
                        value = plane[s, r]
                        if value == 0:
                            continue
                        # The activation phase (py, px) this weight pairs
                        # with must satisfy (p + pad - offset) % stride == 0.
                        py = (s - spec.padding) % stride
                        px = (r - spec.padding) % stride
                        phase = py * stride + px
                        streams[(group, c, phase)].append((k, s, r, float(value)))
    return streams


def _activation_stream(
    activations: np.ndarray, plan: TilingPlan, stride: int
) -> Dict[Tuple[int, int, int], List[Tuple[int, int, float]]]:
    """Compressed activation streams keyed by (PE, input channel, stride phase).

    Each stream lists ``(y, x, value)`` in raster order with *absolute* plane
    coordinates (the PE knows its tile offset, so coordinates embedded in the
    compressed format are equivalent to these).
    """
    streams: Dict[Tuple[int, int, int], List[Tuple[int, int, float]]] = {}
    num_c = activations.shape[0]
    for pe_index, tile in enumerate(plan.input_tiles):
        for c in range(num_c):
            for phase in range(stride * stride):
                streams[(pe_index, c, phase)] = []
            if not tile.size:
                continue
            block = activations[c, tile.y_lo : tile.y_hi, tile.x_lo : tile.x_hi]
            ys, xs = np.nonzero(block)
            for y, x in zip(ys, xs):
                abs_y = int(y) + tile.y_lo
                abs_x = int(x) + tile.x_lo
                phase = (abs_y % stride) * stride + (abs_x % stride)
                streams[(pe_index, c, phase)].append(
                    (abs_y, abs_x, float(block[y, x]))
                )
    return streams


def _chunks(sequence: Sequence, width: int) -> List[Sequence]:
    return [sequence[i : i + width] for i in range(0, len(sequence), width)]


def run_functional_layer(
    spec: ConvLayerSpec,
    weights: np.ndarray,
    activations: np.ndarray,
    config: AcceleratorConfig = SCNN_CONFIG,
    *,
    apply_relu: bool = True,
) -> FunctionalResult:
    """Run one layer through the element-exact PT-IS-CP-sparse simulator."""
    weights = np.asarray(weights, dtype=float)
    activations = np.asarray(activations, dtype=float)
    if weights.shape != spec.weight_shape:
        raise ValueError(
            f"weights shape {weights.shape} does not match spec {spec.weight_shape}"
        )
    if activations.shape != spec.input_shape:
        raise ValueError(
            f"activations shape {activations.shape} does not match spec "
            f"{spec.input_shape}"
        )

    pe_rows, pe_cols = config.pe_grid
    plan = plan_layer(
        spec,
        num_pes=config.num_pes,
        group_size=config.output_channel_group,
        pe_rows=pe_rows,
        pe_cols=pe_cols,
    )
    weight_streams = _weight_stream(weights, spec, config.output_channel_group)
    activation_streams = _activation_stream(activations, plan, spec.stride)
    num_phases = spec.stride * spec.stride

    out_k, out_h, out_w = spec.output_shape
    output = np.zeros(spec.output_shape, dtype=float)
    num_pes = plan.num_pes
    busy_cycles = np.zeros(num_pes, dtype=np.int64)
    pe_cycles = np.zeros(num_pes, dtype=np.int64)
    conflicts = ConflictStatistics()
    group_cycles: List[int] = []
    total_products = 0
    halo_products = 0

    def _acc_bounds(lo: int, hi: int, filter_size: int, limit: int) -> Tuple[int, int]:
        """Output-coordinate range reachable from input columns ``[lo, hi)``.

        A product from input column ``x`` and filter offset ``r`` lands at
        ``(x + pad - r) / stride``; the accumulator of a PE must cover every
        coordinate reachable from its input tile (owned region plus halo).
        """
        if hi <= lo:
            return 0, 1
        least = (lo + spec.padding - (filter_size - 1)) // spec.stride
        most = (hi - 1 + spec.padding) // spec.stride
        return max(0, least), min(limit, most + 1)

    for group in range(plan.num_groups):
        k_lo = group * config.output_channel_group
        group_channels = plan.group_channels(group)
        per_pe_group_cycles = np.zeros(num_pes, dtype=np.int64)
        for pe_index, out_tile in enumerate(plan.output_tiles):
            if plan.input_tiles[pe_index].size == 0:
                continue
            in_tile = plan.input_tiles[pe_index]
            acc_x_lo, acc_x_hi = _acc_bounds(
                in_tile.x_lo, in_tile.x_hi, spec.filter_width, out_w
            )
            acc_y_lo, acc_y_hi = _acc_bounds(
                in_tile.y_lo, in_tile.y_hi, spec.filter_height, out_h
            )
            acc_w = max(1, acc_x_hi - acc_x_lo)
            acc_h = max(1, acc_y_hi - acc_y_lo)
            accumulator = BankedAccumulator(
                group_size=len(group_channels),
                acc_height=acc_h,
                acc_width=acc_w,
                banks=config.accumulator_banks,
                bank_entries=config.accumulator_bank_entries,
            )
            cycles_this_group = 0
            for c in range(spec.in_channels):
              for phase in range(num_phases):
                acts = activation_streams[(pe_index, c, phase)]
                wts = weight_streams[(group, c, phase)]
                if not acts or not wts:
                    continue
                act_vectors = _chunks(acts, config.multipliers_i)
                weight_vectors = _chunks(wts, config.multipliers_f)
                for act_vec in act_vectors:
                    for wt_vec in weight_vectors:
                        products = []
                        for act_y, act_x, act_value in act_vec:
                            for k, s, r, wt_value in wt_vec:
                                coords = output_coordinate(
                                    act_x,
                                    act_y,
                                    r,
                                    s,
                                    stride=spec.stride,
                                    pad=spec.padding,
                                )
                                if coords is None:
                                    continue
                                out_x, out_y = coords
                                if not (0 <= out_x < out_w and 0 <= out_y < out_h):
                                    continue
                                if not (
                                    out_tile.x_lo <= out_x < out_tile.x_hi
                                    and out_tile.y_lo <= out_y < out_tile.y_hi
                                ):
                                    halo_products += 1
                                products.append(
                                    (
                                        k - k_lo,
                                        out_y - acc_y_lo,
                                        out_x - acc_x_lo,
                                        act_value * wt_value,
                                    )
                                )
                        accumulator.scatter(products)
                        # One issue step per (activation vector, weight vector)
                        # pair: the per-bank FIFOs behind the scatter crossbar
                        # absorb transient conflicts (the measured conflict
                        # distribution is reported in ``conflict_statistics``),
                        # so sustained throughput is one Cartesian product per
                        # cycle — the same assumption the cycle model makes.
                        cycles_this_group += 1
                        total_products += len(products)
            # Halo exchange: the drained accumulator (owned region plus halo)
            # is summed into the global output plane; overlapping halo entries
            # from neighbouring PEs accumulate, which is exactly the neighbour
            # exchange the PPU performs.
            drained = accumulator.drain()
            output[
                k_lo : k_lo + len(group_channels),
                acc_y_lo:acc_y_hi,
                acc_x_lo:acc_x_hi,
            ] += drained
            for peak, count in accumulator.statistics.load_histogram.items():
                for _ in range(count):
                    conflicts.record([peak])
            per_pe_group_cycles[pe_index] = cycles_this_group + (
                config.drain_overhead_cycles if cycles_this_group else 0
            )
        group_max = int(per_pe_group_cycles.max()) if num_pes else 0
        if group_max:
            group_max += config.barrier_overhead_cycles
        group_cycles.append(group_max)
        busy_cycles += per_pe_group_cycles
        pe_cycles += group_max

    total_cycles = int(sum(group_cycles))
    pre_activation = output.copy()
    if apply_relu:
        output = np.maximum(output, 0.0)
    density = float(np.count_nonzero(output)) / output.size if output.size else 0.0
    compressed = CompressedActivations(output, index_bits=max(config.index_bits, 1))
    utilization = 0.0
    busy_total = int(busy_cycles.sum())
    if busy_total:
        utilization = total_products / (busy_total * config.multipliers_per_pe)
    return FunctionalResult(
        spec=spec,
        output=output,
        output_pre_activation=pre_activation,
        cycles=total_cycles,
        pe_cycles=pe_cycles,
        busy_cycles=busy_cycles,
        multiplies=total_products,
        multiplier_utilization=utilization,
        conflict_statistics=conflicts,
        halo_products=halo_products,
        output_density=density,
        oaram_bits=compressed.storage_bits(),
        group_cycles=group_cycles,
    )
