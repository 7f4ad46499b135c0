"""Per-event energy accounting for SCNN, DCNN and DCNN-opt.

The paper applies an energy model "to the time loop events derived from the
synthesis modeling" — i.e. it counts architectural events (multiplies, buffer
accesses, crossbar traversals, DRAM transfers) for each accelerator and
multiplies them by per-event costs obtained from synthesis.  We reproduce
exactly that structure.  The absolute per-event costs below are calibrated so
that the *relationships* the paper reports hold (DCNN-opt ~2x better than
DCNN, SCNN ~2.3x better than DCNN on the pruned networks, SCNN/DCNN energy
crossover near 85% density and SCNN/DCNN-opt crossover near 60%); they are
stated in picojoules for readability but only their ratios matter.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.arch.registry import resolve_config
from repro.arch.spec import AcceleratorConfig
from repro.nn.layers import ConvLayerSpec


@dataclass(frozen=True)
class EnergyTable:
    """Per-event energy costs (picojoules per event).

    ``multiply`` covers the 16-bit multiplier and its local operand latching;
    ``accumulator_update`` is one read-add-write of a small accumulator bank;
    ``crossbar`` is one product traversal of the FxI-to-A scatter network;
    the SRAM costs are per 16-bit value; ``dram`` is per 16-bit value of
    off-chip traffic; ``pe_cycle`` is the static/control energy of one PE for
    one cycle (clocking, sequencing, index handling).
    """

    multiply: float = 0.80
    accumulator_update: float = 0.45
    crossbar: float = 0.30
    iaram_read: float = 0.30
    oaram_write: float = 0.30
    dense_sram_read: float = 0.60
    dense_sram_write: float = 0.60
    weight_buffer_read: float = 0.12
    index_access: float = 0.05
    halo_transfer: float = 0.60
    dram: float = 22.0
    pe_cycle: float = 3.5

    def scaled(self, **overrides: float) -> "EnergyTable":
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values.update(overrides)
        return EnergyTable(**values)


DEFAULT_ENERGY_TABLE = EnergyTable()


@dataclass
class EventCounts:
    """Architectural event counts on one accelerator.

    Plain ints for one layer (:func:`count_layer_events`); integer arrays
    for a layers x points grid (:func:`event_counts` as the grid calls it).
    """

    multiplies: int = 0
    gated_multiplies: int = 0
    accumulator_updates: int = 0
    crossbar_products: int = 0
    iaram_reads: int = 0
    oaram_writes: int = 0
    dense_sram_reads: int = 0
    dense_sram_writes: int = 0
    weight_buffer_reads: int = 0
    index_accesses: int = 0
    halo_transfers: int = 0
    dram_values: int = 0
    pe_cycles: int = 0


@dataclass
class EnergyBreakdown:
    """Energy of one layer on one accelerator, by component (picojoules)."""

    config_name: str
    components: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return float(sum(self.components.values()))


#: Energy component labels in the order :func:`energy_components` emits them
#: (the order matters: totals are summed in it, term by term).
ENERGY_COMPONENTS: Tuple[str, ...] = (
    "multiplier",
    "accumulator",
    "scatter crossbar",
    "activation RAM",
    "weight buffer",
    "index handling",
    "halo exchange",
    "DRAM",
    "static / control",
)


def _round(values):
    """``round()`` elementwise (half to even), as int64."""
    return np.rint(values).astype(np.int64)


def _truncate(values):
    """``int()`` elementwise (toward zero), as int64."""
    return np.trunc(values).astype(np.int64)


def event_counts(
    config: AcceleratorConfig,
    *,
    dense_macs,
    weight_values,
    input_values,
    output_values,
    num_groups,
    in_channels,
    weight_density,
    activation_density,
    output_density,
    cycles,
    products=None,
    weight_buffer_reads=None,
) -> EventCounts:
    """The event-count model: architectural events of layers on one accelerator.

    Written with numpy ufuncs, so the same body takes a layer's footprint
    (``dense_macs`` ... ``in_channels``, the shape-derived counts) and
    densities as Python scalars (:func:`count_layer_events`) or as arrays
    broadcastable to a layers x points grid (:func:`repro.grid.energy_grid`).
    The returned counts are numpy integers or integer arrays.

    ``products`` (multiplies with both operands non-zero) and
    ``weight_buffer_reads`` may come from the cycle-level simulation when
    available; otherwise they are estimated analytically from the densities,
    which is what the TimeLoop sweep does.
    """
    nnz_weights = _round(weight_values * weight_density)
    nnz_inputs = _round(input_values * activation_density)
    nnz_outputs = _round(output_values * output_density)
    if products is None:
        products = _round(dense_macs * weight_density * activation_density)
    events = EventCounts(pe_cycles=cycles * config.num_pes)
    dataflow = config.dataflow
    # Input + output activations fit on chip when they fit the activation
    # SRAM's 16-bit values.
    capacity = config.activation_sram_bytes // 2

    if dataflow.is_sparse:
        # SCNN: only non-zero operands reach the datapath; data stays
        # compressed in the IARAM/OARAM and on the DRAM interface.
        events.multiplies = products
        events.accumulator_updates = products
        events.crossbar_products = products
        events.iaram_reads = nnz_inputs * num_groups
        events.oaram_writes = nnz_outputs
        if weight_buffer_reads is None:
            act_vectors = np.maximum(1, -(-nnz_inputs // config.multipliers_i))
            weight_buffer_reads = nnz_weights * np.maximum(
                1, act_vectors // np.maximum(1, in_channels)
            )
        events.weight_buffer_reads = weight_buffer_reads
        events.index_accesses = events.iaram_reads + weight_buffer_reads
        events.halo_transfers = _truncate(
            0.1 * config.output_channel_group * num_groups * config.num_pes * 16
        )
        factor = 1.0 + config.index_bits / 16.0
        fits = _truncate(nnz_inputs * 1.3) + _truncate(nnz_outputs * 1.3) <= capacity
        events.dram_values = _truncate(nnz_weights * factor) + np.where(
            fits, 0, _truncate((nnz_inputs + nnz_outputs) * factor)
        )
        return events

    # Dense baselines: every multiply occupies the datapath; DCNN-opt gates
    # the multiplier when an operand is zero and compresses DRAM activation
    # traffic, but its on-chip storage stays dense and its adder tree /
    # accumulator still cycles every step.  The dot-product inner operation
    # reduces F products through an adder tree before touching the
    # accumulator buffer, so the buffer is accessed once per F multiplies.
    if dataflow.gates_zero_operands:
        events.multiplies = products
        events.gated_multiplies = dense_macs - products
    else:
        events.multiplies = dense_macs
    events.accumulator_updates = dense_macs // max(1, config.multipliers_f)
    events.dense_sram_reads = input_values * num_groups
    events.dense_sram_writes = output_values
    events.weight_buffer_reads = dense_macs // max(1, config.multipliers_i)
    if dataflow.compresses_dram_traffic:
        spill = _truncate((nnz_inputs + nnz_outputs) * (1.0 + 4.0 / 16.0))
    else:
        spill = input_values + output_values
    fits = input_values + output_values <= capacity
    events.dram_values = weight_values + np.where(fits, 0, spill)
    return events


def count_layer_events(
    spec: ConvLayerSpec,
    config: Union[AcceleratorConfig, str],
    *,
    weight_density: float,
    activation_density: float,
    output_density: float,
    cycles: int,
    products: Optional[int] = None,
    weight_buffer_reads: Optional[int] = None,
) -> EventCounts:
    """Count the architectural events of one layer on one accelerator.

    :func:`event_counts` of the layer's footprint, as plain ints.
    ``config`` accepts a registered architecture name (resolved through
    :mod:`repro.arch.registry`).
    """
    config = resolve_config(config)
    events = event_counts(
        config,
        dense_macs=spec.multiplies,
        weight_values=spec.weight_count,
        input_values=spec.input_activation_count,
        output_values=spec.output_activation_count,
        num_groups=-(-spec.out_channels // config.output_channel_group),
        in_channels=spec.in_channels,
        weight_density=weight_density,
        activation_density=activation_density,
        output_density=output_density,
        cycles=cycles,
        products=products,
        weight_buffer_reads=weight_buffer_reads,
    )
    return EventCounts(
        **{name: int(value) for name, value in vars(events).items()}
    )


def energy_components(events: EventCounts, table: EnergyTable) -> Dict[str, object]:
    """Energy per component (picojoules), keyed in :data:`ENERGY_COMPONENTS` order.

    Scalar event counts give floats; array counts give arrays.
    """
    return {
        "multiplier": events.multiplies * table.multiply,
        "accumulator": events.accumulator_updates * table.accumulator_update,
        "scatter crossbar": events.crossbar_products * table.crossbar,
        "activation RAM": (
            events.iaram_reads * table.iaram_read
            + events.oaram_writes * table.oaram_write
            + events.dense_sram_reads * table.dense_sram_read
            + events.dense_sram_writes * table.dense_sram_write
        ),
        "weight buffer": events.weight_buffer_reads * table.weight_buffer_read,
        "index handling": events.index_accesses * table.index_access,
        "halo exchange": events.halo_transfers * table.halo_transfer,
        "DRAM": events.dram_values * table.dram,
        "static / control": events.pe_cycles * table.pe_cycle,
    }


def layer_energy(
    events: EventCounts,
    config: Union[AcceleratorConfig, str],
    table: EnergyTable = DEFAULT_ENERGY_TABLE,
) -> EnergyBreakdown:
    """Convert event counts into an energy breakdown."""
    config = resolve_config(config)
    return EnergyBreakdown(
        config_name=config.name, components=energy_components(events, table)
    )


def layer_energy_from_densities(
    spec: ConvLayerSpec,
    config: Union[AcceleratorConfig, str],
    *,
    weight_density: float,
    activation_density: float,
    output_density: float,
    cycles: int,
    products: Optional[int] = None,
    weight_buffer_reads: Optional[int] = None,
) -> EnergyBreakdown:
    """Count events, then price them from :data:`DEFAULT_ENERGY_TABLE`."""
    events = count_layer_events(
        spec,
        config,
        weight_density=weight_density,
        activation_density=activation_density,
        output_density=output_density,
        cycles=cycles,
        products=products,
        weight_buffer_reads=weight_buffer_reads,
    )
    return layer_energy(events, config)
