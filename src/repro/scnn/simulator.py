"""Layer- and network-level simulation drivers.

``simulate_layer`` runs one layer workload through the SCNN cycle model, the
dense DCNN baseline, the oracle bound and the energy model;
``simulate_network`` does so for every layer of a catalogue network and
aggregates the per-layer results the way the paper's figures do (per layer,
per inception module, and network-wide).

Both functions are pure: the same workload always yields the same metrics,
with no hidden state.  That is what lets the batched simulation engine
(:mod:`repro.engine`) shard ``simulate_layer`` calls across a process pool
and cache finished :class:`LayerSimulation` / :class:`NetworkSimulation`
objects content-addressed on disk — parallel, cached runs are
bitwise-identical to calling ``simulate_network`` directly.
Experiments should prefer ``SimulationEngine.run_network`` over calling
``simulate_network`` in a loop; this module stays the serial reference
implementation the engine is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.arch.registry import DCNN_CONFIG, DCNN_OPT_CONFIG, SCNN_CONFIG
from repro.dataflow.tiling import phase_integral_images
from repro.nn.inference import LayerWorkload, build_network_workloads
from repro.nn.networks import Network
from repro.scnn.cycles import LayerCycleResult, simulate_layer_cycles
from repro.scnn.dcnn import DenseLayerResult, simulate_dcnn_layer
from repro.scnn.oracle import nonzero_multiplies, oracle_cycles
from repro.timeloop.energy import EnergyBreakdown, layer_energy_from_densities

# Post-ReLU output density assumed when the caller provides no measurement
# and no next-layer calibration is available (roughly half the outputs of a
# zero-mean pre-activation distribution are clamped).
DEFAULT_OUTPUT_DENSITY = 0.55


@dataclass
class LayerSimulation:
    """All simulation results of one layer."""

    workload: LayerWorkload
    scnn: LayerCycleResult
    dcnn: DenseLayerResult
    oracle_cycles: int
    output_density: float
    energy: Dict[str, EnergyBreakdown] = field(default_factory=dict)

    @property
    def layer_name(self) -> str:
        return self.workload.spec.name

    @property
    def module(self) -> str:
        return self.workload.spec.module or self.workload.spec.name

    @property
    def scnn_speedup(self) -> float:
        """SCNN speedup over the dense DCNN baseline."""
        if self.scnn.cycles == 0:
            return float("inf")
        return self.dcnn.cycles / self.scnn.cycles

    @property
    def oracle_speedup(self) -> float:
        if self.oracle_cycles == 0:
            return float("inf")
        return self.dcnn.cycles / self.oracle_cycles

    def energy_relative_to_dcnn(self, name: str) -> float:
        baseline = self.energy["DCNN"].total
        if baseline == 0:
            return float("inf")
        return self.energy[name].total / baseline


@dataclass
class NetworkSimulation:
    """Per-layer and aggregated results of one network."""

    network: Network
    layers: List[LayerSimulation]

    def layer(self, name: str) -> LayerSimulation:
        for sim in self.layers:
            if sim.layer_name == name:
                return sim
        raise KeyError(f"no simulated layer named {name!r}")

    # -- aggregation -----------------------------------------------------------

    def total_cycles(self, which: str) -> int:
        if which == "SCNN":
            return sum(sim.scnn.cycles for sim in self.layers)
        if which in ("DCNN", "DCNN-opt"):
            return sum(sim.dcnn.cycles for sim in self.layers)
        if which == "oracle":
            return sum(sim.oracle_cycles for sim in self.layers)
        raise KeyError(f"unknown accelerator {which!r}")

    @property
    def network_speedup(self) -> float:
        scnn = self.total_cycles("SCNN")
        if scnn == 0:
            return float("inf")
        return self.total_cycles("DCNN") / scnn

    @property
    def oracle_network_speedup(self) -> float:
        oracle = self.total_cycles("oracle")
        if oracle == 0:
            return float("inf")
        return self.total_cycles("DCNN") / oracle

    def total_energy(self, which: str) -> float:
        return sum(sim.energy[which].total for sim in self.layers)

    def network_energy_ratio(self, which: str) -> float:
        """Energy of ``which`` relative to DCNN (lower is better)."""
        baseline = self.total_energy("DCNN")
        if baseline == 0:
            return float("inf")
        return self.total_energy(which) / baseline

    def modules(self) -> List[str]:
        seen: List[str] = []
        for sim in self.layers:
            if sim.module not in seen:
                seen.append(sim.module)
        return seen

    def module_speedup(self, module: str) -> Dict[str, float]:
        """Aggregate speedups of one module (used for GoogLeNet's IC_xx bars)."""
        members = [sim for sim in self.layers if sim.module == module]
        dcnn = sum(sim.dcnn.cycles for sim in members)
        scnn = sum(sim.scnn.cycles for sim in members)
        oracle = sum(sim.oracle_cycles for sim in members)
        return {
            "DCNN": 1.0,
            "SCNN": dcnn / scnn if scnn else float("inf"),
            "SCNN (oracle)": dcnn / oracle if oracle else float("inf"),
        }

    def module_utilization(self, module: str) -> Dict[str, float]:
        """Cycle-weighted multiplier utilization and idle fraction of a module."""
        members = [sim for sim in self.layers if sim.module == module]
        total = sum(sim.scnn.cycles for sim in members)
        if total == 0:
            return {"multiplier_utilization": 0.0, "idle_fraction": 0.0}
        util = sum(sim.scnn.multiplier_utilization * sim.scnn.cycles for sim in members)
        idle = sum(sim.scnn.idle_fraction * sim.scnn.cycles for sim in members)
        return {
            "multiplier_utilization": util / total,
            "idle_fraction": idle / total,
        }


def simulate_layer(
    workload: LayerWorkload,
    *,
    output_density: Optional[float] = None,
) -> LayerSimulation:
    """Simulate one layer on the paper's trio: SCNN, DCNN and DCNN-opt.

    The trio is fixed to the paper's Table IV configurations and energy is
    priced from :data:`~repro.timeloop.energy.DEFAULT_ENERGY_TABLE`.  Other
    registered architectures are evaluated through
    :meth:`repro.engine.SimulationEngine.run_architectures`.
    """
    spec = workload.spec
    # The cycle model and the oracle read only the operands' non-zero
    # structure: each mask, and the activation mask's per-stride-phase
    # integral images, are formed once and shared.
    weight_mask = workload.weights != 0
    activation_mask = workload.activations != 0
    integrals = phase_integral_images(activation_mask, spec.stride)
    scnn = simulate_layer_cycles(
        spec, weight_mask, activation_mask, SCNN_CONFIG, integrals=integrals
    )
    dcnn = simulate_dcnn_layer(spec, DCNN_CONFIG)
    products = nonzero_multiplies(
        spec, weight_mask, activation_mask, integrals=integrals
    )
    oracle = oracle_cycles(
        spec, weight_mask, activation_mask, SCNN_CONFIG, products=products
    )
    if output_density is None:
        output_density = DEFAULT_OUTPUT_DENSITY

    weight_density = workload.weight_density
    activation_density = workload.activation_density
    energy: Dict[str, EnergyBreakdown] = {}
    for config, cycles in (
        (SCNN_CONFIG, scnn.cycles),
        (DCNN_CONFIG, dcnn.cycles),
        (DCNN_OPT_CONFIG, dcnn.cycles),
    ):
        energy[config.name] = layer_energy_from_densities(
            spec,
            config,
            weight_density=weight_density,
            activation_density=activation_density,
            output_density=output_density,
            cycles=cycles,
            products=products,
            weight_buffer_reads=(
                scnn.weight_vector_fetches * SCNN_CONFIG.multipliers_f
                if config.is_sparse
                else None
            ),
        )
    return LayerSimulation(
        workload=workload,
        scnn=scnn,
        dcnn=dcnn,
        oracle_cycles=oracle,
        output_density=output_density,
        energy=energy,
    )


def simulate_network(
    network: Network,
    *,
    workloads: Optional[Sequence[LayerWorkload]] = None,
    seed: int = 0,
) -> NetworkSimulation:
    """Simulate every layer of ``network`` at its calibrated densities.

    A layer's output activations are the next layer's input activations, so
    each layer's output density is taken from its successor workload's
    measured input activation density (the last layer falls back to the
    default post-ReLU estimate).  This is how activation sparsity propagates
    between layers in the paper's flow: the compressed output of one layer is
    the next layer's input.
    """
    if workloads is None:
        workloads = build_network_workloads(network, seed=seed)
    workloads = list(workloads)
    simulations = []
    for index, workload in enumerate(workloads):
        output_density = None
        if index + 1 < len(workloads):
            output_density = workloads[index + 1].activation_density
        simulations.append(simulate_layer(workload, output_density=output_density))
    return NetworkSimulation(network=network, layers=list(simulations))
