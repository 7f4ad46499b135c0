"""Simulator adapters: the common evaluation interface behind every spec.

An adapter knows how to evaluate one *family* of architectures with the
repository's performance models; a spec names its adapter
(:attr:`~repro.arch.spec.ArchitectureSpec.adapter`) and the registry resolves
it at simulation time.  Every adapter exposes the same
``simulate_layer(spec, config, operands) -> ArchLayerResult`` surface, so the
engine's comparison sweeps (and anything else that iterates architectures)
never branch on accelerator family.

Adapters read operand *masks*, never operand tensors: the engine synthesises
a layer at most once, forms its :class:`LayerOperands`, and hands the same
masks to every architecture it evaluates on that layer.  Two adapters cover
the paper's catalogue:

* ``cartesian-sparse`` — the vectorised PT-IS-CP cycle model
  (:func:`repro.scnn.cycles.simulate_layer_cycles`).  The dataflow's
  ``skips_zero_weights`` / ``skips_zero_activations`` flags decide which
  operands the architecture observes compressed: an operand the dataflow
  cannot skip is observed as an all-True mask (the cycle model consumes
  only the non-zero *structure* of its operands, so an all-True mask models
  an uncompressed stream exactly).  This one adapter therefore covers SCNN
  and both single-operand ablations.
* ``dot-product-dense`` — the dense PT-IS-DP baseline model
  (:func:`repro.scnn.dcnn.simulate_dcnn_layer`); only the layer shape
  matters, so it reads no operands and a layer evaluated only on dense
  architectures is never synthesised.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch.spec import AcceleratorConfig
from repro.dataflow.tiling import phase_integral_images
from repro.nn.layers import ConvLayerSpec
from repro.scnn.cycles import simulate_layer_cycles
from repro.scnn.dcnn import simulate_dcnn_layer


@dataclass(frozen=True)
class ArchLayerResult:
    """One layer evaluated on one architecture, adapter-independent.

    ``operations`` counts the multiplier slots the layer actually occupied —
    non-zero products for a sparse architecture, all multiplies for a dense
    one.  ``weight_vector_fetches`` is only reported by the sparse adapter
    (the energy model turns it into weight-buffer reads); dense adapters
    leave it ``None``.
    """

    architecture: str
    layer: str
    cycles: int
    operations: int
    multiplier_utilization: float
    idle_fraction: float
    weight_vector_fetches: Optional[int] = None


class LayerOperands:
    """One layer's operand non-zero structure, shared across architectures.

    ``weights`` and ``activations`` are the operands' bool masks.  The
    activation mask's phase integral images, and the all-True stand-ins (with
    their integral images) of operands a dataflow cannot skip, are each
    built on first use and then reused by every later architecture.
    """

    def __init__(
        self, spec: ConvLayerSpec, weights: np.ndarray, activations: np.ndarray
    ) -> None:
        self.spec = spec
        self.weights = weights
        self.activations = activations

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


class SimulatorAdapter:
    """Common interface every architecture family implements."""

    #: Registry key (the value a spec's ``adapter`` field names).
    name: str = ""
    #: Whether :meth:`simulate_layer` reads the layer's operand masks.
    reads_operands: bool = True

    def simulate_layer(
        self,
        spec: ConvLayerSpec,
        config: AcceleratorConfig,
        operands: Optional[LayerOperands],
    ) -> ArchLayerResult:
        """Evaluate one layer on ``config``.

        ``operands`` carries the layer's masks.  It is ``None`` when the
        engine skipped synthesis because no architecture evaluated on the
        layer reads operands, so only an adapter with
        ``reads_operands = False`` can receive ``None``.
        """
        raise NotImplementedError


class CartesianSparseAdapter(SimulatorAdapter):
    """PT-IS-CP architectures: SCNN and its single-operand ablations."""

    name = "cartesian-sparse"

    def simulate_layer(
        self,
        spec: ConvLayerSpec,
        config: AcceleratorConfig,
        operands: Optional[LayerOperands],
    ) -> ArchLayerResult:
        """Run the vectorised sparse cycle model on the masks ``config`` observes."""
        dataflow = config.dataflow
        if dataflow.skips_zero_weights:
            weights = operands.weights
        else:
            weights = operands.dense_weights
        if dataflow.skips_zero_activations:
            activations, integrals = operands.activations, operands.integrals
        else:
            activations = operands.dense_activations
            integrals = operands.dense_integrals
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
        )


class DotProductDenseAdapter(SimulatorAdapter):
    """PT-IS-DP architectures: the DCNN / DCNN-opt dense baselines."""

    name = "dot-product-dense"
    reads_operands = False

    def simulate_layer(
        self,
        spec: ConvLayerSpec,
        config: AcceleratorConfig,
        operands: Optional[LayerOperands],
    ) -> ArchLayerResult:
        """Run the dense baseline model (layer shape only, no operands)."""
        result = simulate_dcnn_layer(spec, config)
        return ArchLayerResult(
            architecture=config.name,
            layer=spec.name,
            cycles=int(result.cycles),
            operations=int(result.multiplies),
            multiplier_utilization=result.multiplier_utilization,
            idle_fraction=result.idle_fraction,
            weight_vector_fetches=None,
        )


_ADAPTERS: Dict[str, SimulatorAdapter] = {
    adapter.name: adapter
    for adapter in (CartesianSparseAdapter(), DotProductDenseAdapter())
}


def available_adapters() -> List[str]:
    """Names of every registered simulator adapter."""
    return sorted(_ADAPTERS)


def get_adapter(name: str) -> SimulatorAdapter:
    """Adapter registered under ``name``; unknown names list the catalogue."""
    try:
        return _ADAPTERS[name]
    except KeyError:
        known = ", ".join(map(repr, available_adapters())) or "(none)"
        raise KeyError(
            f"unknown simulator adapter {name!r}; available adapters: {known}"
        ) from None


def effective_densities(
    config: AcceleratorConfig,
    weight_density: float,
    activation_density: float,
    output_density: float,
) -> Tuple[float, float, float]:
    """Densities as observed by ``config``'s dataflow.

    An operand the dataflow cannot skip is observed fully dense (density
    1.0); output activations follow the activation operand, since one layer's
    outputs are the next layer's input activations.  The energy model is fed
    these *effective* densities so a single-operand ablation is charged for
    the dense stream it actually moves.
    """
    dataflow = config.dataflow
    effective_weight = weight_density if dataflow.skips_zero_weights else 1.0
    if dataflow.skips_zero_activations:
        return effective_weight, activation_density, output_density
    return effective_weight, 1.0, 1.0
