"""Whole-grid evaluation of the analytical cycle/energy models.

One call evaluates an entire arch x workload x density grid: the layer
shapes and config parameters are stacked once (:mod:`repro.grid.stack`), the
binomial fetch expectations are computed for every (block, density, width)
triple in a handful of pmf passes (:mod:`repro.grid.binomial`), and the
closed-form cycle/energy/utilization formulas broadcast across the whole
grid as tensor arithmetic.

These kernels are the analytical models' only implementation.
:func:`scnn_cycle_grid` is the SCNN cycle model
(:func:`repro.timeloop.model.estimate_scnn_layer` is one cell of it);
:func:`dense_cycle_grid` reduces the dense baseline's per-PE busy cycles
with the same :func:`repro.scnn.dcnn.dense_cycle_metrics` the per-layer
simulator uses; :func:`energy_grid` runs the event-count model
(:func:`repro.timeloop.energy.event_counts`) on whole grids.  The golden
fixture ``tests/golden/analytical_models.json`` pins their outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.arch.registry import resolve_config
from repro.arch.spec import AcceleratorConfig
from repro.grid.binomial import expected_vector_counts
from repro.grid.stack import config_layer_stack
from repro.nn.layers import ConvLayerSpec
from repro.scnn.dcnn import dense_cycle_metrics
from repro.timeloop.energy import (
    DEFAULT_ENERGY_TABLE,
    ENERGY_COMPONENTS,
    EnergyBreakdown,
    energy_components,
    event_counts,
)
from repro.timeloop.model import AnalyticalLayerEstimate

_GRID_EVALUATIONS = obs.counter(
    "repro_grid_evaluations_total", "Whole-grid analytical evaluations."
)
_GRID_CELLS = obs.counter(
    "repro_grid_cells_total",
    "Grid cells (configs x layers x density points) evaluated.",
)


@dataclass(frozen=True)
class CycleGrid:
    """Cycle-model metrics of one config over a (layers x densities) grid."""

    cycles: np.ndarray
    products: np.ndarray
    multiplier_utilization: np.ndarray
    idle_fraction: np.ndarray


def _density_grid(
    value: np.ndarray, layers: int, points: int, name: str
) -> np.ndarray:
    """Broadcast a density argument to the ``(layers, points)`` grid shape."""
    array = np.asarray(value, dtype=np.float64)
    if array.ndim == 0:
        array = array.reshape(1, 1)
    elif array.ndim == 1:
        # A 1-D argument is the density axis, shared by every layer.
        array = array.reshape(1, -1)
    if array.ndim != 2:
        raise ValueError(
            f"{name} must be at most 2-D (layers x density points), "
            f"got shape {array.shape}"
        )
    return np.broadcast_to(array, (layers, points))


def _validate_density(array: np.ndarray, name: str) -> None:
    if np.any((array <= 0.0) | (array > 1.0)):
        raise ValueError(f"{name} must be in (0, 1]")


def density_milli(density) -> np.ndarray:
    """Quantise validated densities in (0, 1] to thousandths, floored at 1.

    The floor matters: a nonzero density below 0.0005 would otherwise round
    to 0 and the binomial kernel would report zero expected fetches — zero
    cycles for real work.  One milli is the model's density resolution, so
    near-zero densities saturate at it instead of vanishing.  Elementwise;
    rounds half to even.
    """
    return np.maximum(1, np.rint(np.asarray(density) * 1000).astype(np.int64))


def scnn_cycle_grid(
    specs: Sequence[ConvLayerSpec],
    config: Union[AcceleratorConfig, str],
    weight_density: np.ndarray,
    activation_density: np.ndarray,
) -> CycleGrid:
    """The SCNN analytical cycle model over a ``(layers, points)`` grid.

    ``weight_density`` / ``activation_density`` are ``(layers, points)``
    float grids (use :func:`evaluate_grid` for the friendlier broadcasting
    front end).  Returns ``(layers, points)`` arrays.

    Each (PE, output-channel group) is busy for the product of its expected
    weight- and activation-vector fetches per connected channel and stride
    phase (strided layers decompose the Cartesian product into stride^2
    phase sub-streams), stretched by the expected accumulator-bank conflict
    stalls; a group takes as long as its slowest PE plus a barrier.

    Planar tiling gives most PEs of a layer the same block size, so the
    per-PE terms are computed once per distinct size and gathered back onto
    the PE axis before the reductions over it.
    """
    config = resolve_config(config)
    stack = config_layer_stack(tuple(specs), config)
    wd = np.asarray(weight_density, dtype=np.float64)
    ad = np.asarray(activation_density, dtype=np.float64)
    _validate_density(wd, "weight_density")
    _validate_density(ad, "activation_density")
    wd_milli = density_milli(wd)
    ad_milli = density_milli(ad)

    weight_vectors = expected_vector_counts(
        stack.weight_phase_block[:, None], wd_milli, config.multipliers_f
    )
    weight_nnz = stack.weight_phase_block[:, None] * wd
    sizes = stack.distinct_phase_sizes[:, None, :]
    act_vectors = expected_vector_counts(
        sizes, ad_milli[:, :, None], config.multipliers_i
    )
    act_nnz = sizes * ad[:, :, None]

    channel_phases = stack.c_connected * stack.phases
    steps = channel_phases[:, None, None] * act_vectors * weight_vectors[:, :, None]
    busy = steps * (1.0 + stack.stall_per_step)
    busy = busy + (steps > 0) * config.drain_overhead_cycles
    products_per = (
        channel_phases[:, None, None] * act_nnz * weight_nnz[:, :, None]
    )
    # Elementwise terms gathered per PE reduce exactly as if computed per PE.
    pe_index = stack.phase_size_index[:, None, :]
    busy = np.take_along_axis(busy, pe_index, axis=2)
    products_per = np.take_along_axis(products_per, pe_index, axis=2)

    group_cycles = busy.max(axis=2) + config.barrier_overhead_cycles
    total_cycles = group_cycles * stack.num_groups[:, None]
    total_products = products_per.sum(axis=2) * stack.num_groups[:, None]
    busy_total = busy.sum(axis=2) * stack.num_groups[:, None]

    live = total_cycles > 0
    utilization = np.zeros_like(total_cycles)
    np.divide(
        total_products,
        total_cycles * stack.num_pes * config.multipliers_per_pe,
        out=utilization,
        where=live,
    )
    busy_ratio = np.zeros_like(total_cycles)
    np.divide(busy_total, total_cycles * stack.num_pes, out=busy_ratio, where=live)
    idle = np.where(live, np.maximum(0.0, 1.0 - busy_ratio), 0.0)
    return CycleGrid(
        cycles=total_cycles,
        products=total_products,
        multiplier_utilization=utilization,
        idle_fraction=idle,
    )


def dense_cycle_grid(
    specs: Sequence[ConvLayerSpec],
    config: Union[AcceleratorConfig, str],
) -> CycleGrid:
    """The dense baseline cycle model over a stack of layers (density-free).

    Returns ``(layers,)`` arrays — the dense baselines perform every multiply
    regardless of operand values, so there is no density axis to broadcast.
    :func:`repro.scnn.dcnn.simulate_dcnn_layer` is the same model on one
    layer.
    """
    config = resolve_config(config)
    stack = config_layer_stack(tuple(specs), config)
    cycles, utilization, idle = dense_cycle_metrics(
        stack.dense_busy, stack.dense_macs, stack.num_pes, config.multipliers_per_pe
    )
    return CycleGrid(
        cycles=cycles,
        products=stack.dense_macs,
        multiplier_utilization=utilization,
        idle_fraction=idle,
    )


def energy_grid(
    specs: Sequence[ConvLayerSpec],
    config: Union[AcceleratorConfig, str],
    *,
    weight_density: np.ndarray,
    activation_density: np.ndarray,
    output_density: np.ndarray,
    cycles: np.ndarray,
) -> Dict[str, np.ndarray]:
    """The event-count energy model over a ``(layers, points)`` grid.

    All array arguments are ``(layers, points)`` grids (``cycles`` integer);
    products and weight-buffer reads are estimated from the densities, and
    events are priced from :data:`~repro.timeloop.energy.DEFAULT_ENERGY_TABLE`.
    Returns the component arrays keyed as ``layer_energy`` keys them, plus a
    ``"total"`` entry summed in the same term order, so each cell equals
    :func:`~repro.timeloop.energy.layer_energy_from_densities` of its layer.
    """
    config = resolve_config(config)
    wd = np.asarray(weight_density, dtype=np.float64)
    ad = np.asarray(activation_density, dtype=np.float64)
    od = np.asarray(output_density, dtype=np.float64)
    cycles = np.asarray(cycles)
    shape = np.broadcast_shapes(wd.shape, ad.shape, od.shape, cycles.shape)
    terms = _energy_terms(
        config_layer_stack(tuple(specs), config), config, wd, ad, od, cycles
    )
    return {
        name: np.broadcast_to(np.asarray(value, dtype=np.float64), shape)
        for name, value in terms.items()
    }


def _energy_terms(stack, config, wd, ad, od, cycles) -> Dict[str, object]:
    """Each energy component of the stacked layers, then their ``"total"``.

    The terms keep whatever shape the event-count model gives them (a
    scalar, ``(layers, 1)`` or the full grid); callers broadcast or assign.
    """
    events = event_counts(
        config,
        dense_macs=stack.dense_macs[:, None],
        weight_values=stack.weight_values[:, None],
        input_values=stack.input_values[:, None],
        output_values=stack.output_values[:, None],
        num_groups=stack.num_groups[:, None],
        in_channels=stack.in_channels[:, None],
        weight_density=wd,
        activation_density=ad,
        output_density=od,
        cycles=cycles,
    )
    terms = energy_components(events, DEFAULT_ENERGY_TABLE)
    total = None
    for name in ENERGY_COMPONENTS:
        total = terms[name] if total is None else total + terms[name]
    terms["total"] = total
    return terms


@dataclass(frozen=True)
class GridResult:
    """Metrics of one whole-grid evaluation.

    Every metric array has shape ``(configs, layers, points)``; the density
    grids have shape ``(layers, points)``.  The cell views (:meth:`estimate`,
    :meth:`energy_breakdown`) materialise the dataclasses the one-layer
    entry points return.
    """

    specs: Tuple[ConvLayerSpec, ...]
    configs: Tuple[AcceleratorConfig, ...]
    weight_density: np.ndarray
    activation_density: np.ndarray
    output_density: np.ndarray
    cycles: np.ndarray
    products: np.ndarray
    multiplier_utilization: np.ndarray
    idle_fraction: np.ndarray
    energy: np.ndarray
    energy_components: Dict[str, np.ndarray]

    @property
    def cells(self) -> int:
        """Total number of evaluated (config, layer, point) cells."""
        return int(np.prod(self.cycles.shape))

    def config_index(self, config: Union[int, str]) -> int:
        """Index of a config by position or name (with a catalogue error)."""
        if isinstance(config, int):
            return config
        for index, candidate in enumerate(self.configs):
            if candidate.name == config:
                return index
        known = ", ".join(repr(c.name) for c in self.configs) or "(none)"
        raise KeyError(
            f"no evaluated configuration named {config!r}; "
            f"this grid evaluated: {known}"
        )

    def layer_index(self, layer: Union[int, str]) -> int:
        """Index of a layer by position or spec name (with a catalogue error)."""
        if isinstance(layer, int):
            return layer
        for index, spec in enumerate(self.specs):
            if spec.name == layer:
                return index
        known = ", ".join(repr(s.name) for s in self.specs) or "(none)"
        raise KeyError(
            f"no evaluated layer named {layer!r}; this grid evaluated: {known}"
        )

    def estimate(
        self, config: Union[int, str], layer: Union[int, str], point: int = 0
    ) -> AnalyticalLayerEstimate:
        """One cell as an :class:`AnalyticalLayerEstimate`."""
        c = self.config_index(config)
        s = self.layer_index(layer)
        return AnalyticalLayerEstimate(
            spec_name=self.specs[s].name,
            config_name=self.configs[c].name,
            cycles=float(self.cycles[c, s, point]),
            products=float(self.products[c, s, point]),
            multiplier_utilization=float(
                self.multiplier_utilization[c, s, point]
            ),
            idle_fraction=float(self.idle_fraction[c, s, point]),
        )

    def energy_breakdown(
        self, config: Union[int, str], layer: Union[int, str], point: int = 0
    ) -> EnergyBreakdown:
        """One cell as an :class:`EnergyBreakdown`."""
        c = self.config_index(config)
        s = self.layer_index(layer)
        return EnergyBreakdown(
            config_name=self.configs[c].name,
            components={
                name: float(self.energy_components[name][c, s, point])
                for name in ENERGY_COMPONENTS
            },
        )

    def total_cycles(self, config: Union[int, str], point: int = 0) -> float:
        """Cycles of one config summed over every layer, in layer order."""
        c = self.config_index(config)
        total = 0.0
        for s in range(len(self.specs)):
            total += self.cycles[c, s, point]
        return float(total)

    def total_energy(self, config: Union[int, str], point: int = 0) -> float:
        """Energy of one config summed over every layer, in layer order."""
        c = self.config_index(config)
        total = 0.0
        for s in range(len(self.specs)):
            total += self.energy[c, s, point]
        return float(total)


def evaluate_grid(
    specs: Sequence[ConvLayerSpec],
    configs: Sequence[Union[AcceleratorConfig, str]],
    *,
    weight_density,
    activation_density,
    output_density=None,
    model: str = "auto",
) -> GridResult:
    """Evaluate the whole arch x workload x density grid in one call.

    ``weight_density`` / ``activation_density`` accept a scalar, a 1-D
    density axis (shared by every layer — the Figure 7 shape), or a
    ``(layers, points)`` grid (per-layer densities — the DSE shape).
    ``output_density`` defaults to the activation density (one layer's
    outputs feed the next layer's input stream).

    ``model`` selects the cycle model per config: ``"auto"`` dispatches on
    the dataflow (sparse configs get the SCNN analytical model, dense ones
    the DCNN baseline model — the Figure 7 convention), ``"scnn"`` forces
    the sparse analytical model for every config (the DSE convention), and
    ``"dense"`` forces the dense baseline model.
    """
    if model not in ("auto", "scnn", "dense"):
        raise ValueError(
            f"model must be 'auto', 'scnn' or 'dense', got {model!r}"
        )
    specs = tuple(specs)
    resolved = tuple(resolve_config(config) for config in configs)
    layers = len(specs)
    wd_raw = np.asarray(weight_density, dtype=np.float64)
    ad_raw = np.asarray(activation_density, dtype=np.float64)
    points = int(
        np.broadcast_shapes(
            np.atleast_2d(wd_raw).shape, np.atleast_2d(ad_raw).shape
        )[-1]
    )
    wd = _density_grid(wd_raw, layers, points, "weight_density")
    ad = _density_grid(ad_raw, layers, points, "activation_density")
    _validate_density(wd, "weight_density")
    _validate_density(ad, "activation_density")
    if output_density is None:
        od = ad
    else:
        od = _density_grid(
            np.asarray(output_density, dtype=np.float64),
            layers,
            points,
            "output_density",
        )

    shape = (len(resolved), layers, points)
    if obs.enabled():
        _GRID_EVALUATIONS.inc()
        _GRID_CELLS.inc(len(resolved) * layers * points)
    with obs.span(
        "grid.evaluate", configs=len(resolved), layers=layers, points=points
    ):
        return _evaluate_grid_arrays(specs, resolved, wd, ad, od, model, shape)


def _evaluate_grid_arrays(specs, resolved, wd, ad, od, model, shape) -> GridResult:
    cycles = np.zeros(shape)
    products = np.zeros(shape)
    utilization = np.zeros(shape)
    idle = np.zeros(shape)
    energy = np.zeros(shape)
    energy_components = {name: np.zeros(shape) for name in ENERGY_COMPONENTS}
    for c, config in enumerate(resolved):
        use_dense = model == "dense" or (model == "auto" and not config.is_sparse)
        if use_dense:
            dense = dense_cycle_grid(specs, config)
            cycles[c] = dense.cycles.astype(np.float64)[:, None]
            products[c] = dense.products.astype(np.float64)[:, None]
            utilization[c] = dense.multiplier_utilization[:, None]
            idle[c] = dense.idle_fraction[:, None]
            energy_cycles = dense.cycles[:, None]
        else:
            sparse = scnn_cycle_grid(specs, config, wd, ad)
            cycles[c] = sparse.cycles
            products[c] = sparse.products
            utilization[c] = sparse.multiplier_utilization
            idle[c] = sparse.idle_fraction
            # The energy model counts whole cycles.
            energy_cycles = sparse.cycles.astype(np.int64)
        # Each term goes straight into its slice; numpy broadcasts it there.
        terms = _energy_terms(
            config_layer_stack(specs, config), config, wd, ad, od, energy_cycles
        )
        energy[c] = terms.pop("total")
        for name, term in terms.items():
            energy_components[name][c] = term
    return GridResult(
        specs=specs,
        configs=resolved,
        weight_density=wd,
        activation_density=ad,
        output_density=od,
        cycles=cycles,
        products=products,
        multiplier_utilization=utilization,
        idle_fraction=idle,
        energy=energy,
        energy_components=energy_components,
    )
