"""One model dispatch: every architecture's layer evaluation and energy.

:func:`simulate_layer` evaluates one layer on one
:class:`~repro.arch.spec.AcceleratorConfig` and branches on its dataflow's
inner operation, so the engine's layer task — the paper's trio included —
never branches on accelerator family:

* ``"cartesian"`` — the vectorised PT-IS-CP cycle model
  (:func:`repro.scnn.cycles.simulate_layer_cycles`): SCNN, its granularity
  variants and both single-operand ablations;
* ``"dot"`` — the dense PT-IS-DP baseline model
  (:func:`repro.scnn.dcnn.simulate_dcnn_layer`), whose cycles read the layer
  shape alone; it reads operands only to count what a zero-gating design
  (DCNN-opt) multiplies, so a layer evaluated only on DCNN is never
  synthesised.

The models read operand *masks*, never operand tensors:
:func:`evaluate_layer` forms a layer's :class:`LayerOperands` at most once
and hands the same masks to every architecture it evaluates on that layer.
Each architecture sees the real mask of an operand its dataflow skips or
gates, and an all-True mask otherwise (the models consume only non-zero
*structure*, so an all-True mask models an uncompressed stream exactly).

:func:`price_energy` is every architecture's one energy accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.spec import AcceleratorConfig, ArchitectureSpec
from repro.dataflow.dataflows import Dataflow
from repro.dataflow.tiling import phase_integral_images
from repro.nn.inference import WorkloadHandle
from repro.nn.layers import ConvLayerSpec
from repro.scnn.cycles import simulate_layer_cycles
from repro.scnn.dcnn import simulate_dcnn_layer
from repro.scnn.oracle import nonzero_multiplies
from repro.timeloop.energy import EnergyBreakdown, layer_energy_from_densities


@dataclass(frozen=True)
class ArchLayerResult:
    """One layer evaluated on one architecture, whatever its family.

    ``operations`` counts the multiplier slots the layer occupied: the cycle
    model's Cartesian products for a sparse architecture (including those
    that fall off the output plane), every multiply for a dense one.
    ``valid_products`` counts the products that land in the output, over
    the masks the multiplier sees: what the energy model charges and the
    oracle divides.  It is ``None`` when the model read no operands.
    ``weight_vector_fetches`` is only reported by the Cartesian-product
    model (the energy model turns it into weight-buffer reads).
    """

    architecture: str
    layer: str
    cycles: int
    operations: int
    multiplier_utilization: float
    idle_fraction: float
    weight_vector_fetches: Optional[int] = None
    valid_products: Optional[int] = None
    conflict_stall_cycles: int = 0


class LayerOperands:
    """One layer's operand non-zero structure, shared across architectures.

    ``weights`` and ``activations`` are the operands' bool masks.  The
    activation mask's phase integral images, the all-True stand-ins (with
    their integral images) and each mask pair's valid-product count are
    built on first use and reused by every later architecture.
    """

    def __init__(
        self, spec: ConvLayerSpec, weights: np.ndarray, activations: np.ndarray
    ) -> None:
        self.spec = spec
        self.weights = weights
        self.activations = activations
        self._valid_products: Dict[Tuple[bool, bool], int] = {}

    @cached_property
    def integrals(self) -> Tuple[np.ndarray, ...]:
        """Phase integral images of the activation mask."""
        return phase_integral_images(self.activations, self.spec.stride)

    @cached_property
    def dense_weights(self) -> np.ndarray:
        """All-True weight mask: the uncompressed weight stream."""
        return np.ones(self.weights.shape, dtype=bool)

    @cached_property
    def dense_activations(self) -> np.ndarray:
        """All-True activation mask: the uncompressed activation stream."""
        return np.ones(self.activations.shape, dtype=bool)

    @cached_property
    def dense_integrals(self) -> Tuple[np.ndarray, ...]:
        """Phase integral images of :attr:`dense_activations`."""
        return phase_integral_images(self.dense_activations, self.spec.stride)

    def seen_by(
        self, dataflow: Dataflow
    ) -> Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, ...]]:
        """Weight mask, activation mask and its integral images as
        ``dataflow``'s multipliers see them: real where it skips or gates."""
        gates = dataflow.gates_zero_operands
        weights = (
            self.weights if gates or dataflow.skips_zero_weights else self.dense_weights
        )
        if gates or dataflow.skips_zero_activations:
            return weights, self.activations, self.integrals
        return weights, self.dense_activations, self.dense_integrals

    def valid_products(self, dataflow: Dataflow) -> int:
        """Valid products over the masks ``dataflow``'s multipliers see,
        counted once per mask pair."""
        weights, activations, integrals = self.seen_by(dataflow)
        key = (weights is self.weights, activations is self.activations)
        if key not in self._valid_products:
            self._valid_products[key] = nonzero_multiplies(
                self.spec, weights, activations, integrals=integrals
            )
        return self._valid_products[key]


def _reads_operands(config: AcceleratorConfig) -> bool:
    """Whether :func:`simulate_layer` reads the layer's masks on ``config``:
    the Cartesian-product model always does, the dense model only to count
    what a zero-gating design multiplies."""
    dataflow = config.dataflow
    return dataflow.inner_operation == "cartesian" or dataflow.gates_zero_operands


def simulate_layer(
    spec: ConvLayerSpec,
    config: AcceleratorConfig,
    operands: Optional[LayerOperands],
) -> ArchLayerResult:
    """Evaluate one layer on ``config``, by its dataflow's inner operation.

    ``operands`` carries the layer's masks; it is ``None`` only when no
    architecture evaluated on the layer reads them (:func:`_reads_operands`).
    """
    if config.dataflow.inner_operation == "cartesian":
        weights, activations, integrals = operands.seen_by(config.dataflow)
        result = simulate_layer_cycles(
            spec, weights, activations, config, integrals=integrals
        )
        return ArchLayerResult(
            architecture=config.name,
            layer=spec.name,
            cycles=int(result.cycles),
            operations=int(result.products),
            multiplier_utilization=result.multiplier_utilization,
            idle_fraction=result.idle_fraction,
            weight_vector_fetches=int(result.weight_vector_fetches),
            valid_products=operands.valid_products(config.dataflow),
            conflict_stall_cycles=int(result.conflict_stall_cycles),
        )
    # A dot-product design's cycles read the layer shape only.
    result = simulate_dcnn_layer(spec, config)
    valid_products = None
    if _reads_operands(config):
        valid_products = operands.valid_products(config.dataflow)
    return ArchLayerResult(
        architecture=config.name,
        layer=spec.name,
        cycles=int(result.cycles),
        operations=int(result.multiplies),
        multiplier_utilization=result.multiplier_utilization,
        idle_fraction=result.idle_fraction,
        valid_products=valid_products,
    )


def evaluate_layer(
    workload: WorkloadHandle, specs: Sequence[ArchitectureSpec]
) -> List[ArchLayerResult]:
    """Evaluate one layer workload on each of ``specs``, in order.

    The masks are formed once (``workload.masks()`` synthesises them from
    the recipe's draws, no float tensor on the way), and not at all when no
    spec's configuration reads operands.
    """
    operands = None
    if any(_reads_operands(spec.config) for spec in specs):
        operands = LayerOperands(workload.spec, *workload.masks())
    return [simulate_layer(workload.spec, spec.config, operands) for spec in specs]


def effective_densities(
    config: AcceleratorConfig,
    weight_density: float,
    activation_density: float,
    output_density: float,
) -> Tuple[float, float, float]:
    """Densities as the energy model should observe them on ``config``.

    A dense dataflow keeps the real densities: the event-count model charges
    its zero-gating and DRAM compression itself.  A sparse dataflow moves an
    operand it cannot skip uncompressed, so that operand is observed fully
    dense (density 1.0); output activations follow the activation operand,
    since one layer's outputs are the next layer's input activations.
    """
    dataflow = config.dataflow
    if not dataflow.is_sparse:
        return weight_density, activation_density, output_density
    effective_weight = weight_density if dataflow.skips_zero_weights else 1.0
    if dataflow.skips_zero_activations:
        return effective_weight, activation_density, output_density
    return effective_weight, 1.0, 1.0


def price_energy(
    config: AcceleratorConfig,
    result: ArchLayerResult,
    workload: WorkloadHandle,
    output_density: float,
) -> EnergyBreakdown:
    """Energy of one layer on ``config``: every architecture's one accounting.

    Events are counted at :func:`effective_densities` from ``result``'s
    cycles and valid products; a sparse design's weight-buffer reads are
    its weight-vector fetches times F.  ``workload`` supplies the layer
    shape and measured densities.
    """
    weight_density, activation_density, output_density = effective_densities(
        config, workload.weight_density, workload.activation_density, output_density
    )
    weight_buffer_reads = None
    if config.is_sparse:
        weight_buffer_reads = result.weight_vector_fetches * config.multipliers_f
    return layer_energy_from_densities(
        workload.spec,
        config,
        weight_density=weight_density,
        activation_density=activation_density,
        output_density=output_density,
        cycles=result.cycles,
        products=result.valid_products,
        weight_buffer_reads=weight_buffer_reads,
    )
