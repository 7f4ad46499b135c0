"""Layer- and network-level simulation drivers.

``simulate_layer`` evaluates one layer workload on the paper's trio (SCNN,
DCNN and DCNN-opt) through the architecture registry's adapters — the same
:func:`repro.arch.adapters.evaluate_layer` every other architecture goes
through — and assembles the oracle bound and the energy of each;
``simulate_network`` does so for every layer of a catalogue network and
aggregates the per-layer results the way the paper's figures do (per layer,
per inception module, and network-wide).

Both functions are pure: the same workload always yields the same metrics,
with no hidden state.  The batched simulation engine (:mod:`repro.engine`)
runs the same layer evaluation in its pool tasks and assembles the results
with :func:`network_simulation`, so parallel, cached runs are
bitwise-identical to calling ``simulate_network`` directly.
Experiments should prefer ``SimulationEngine.run_network`` over calling
``simulate_network`` in a loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

# The module, not its names: repro.arch.adapters imports the models of this
# package, whose init imports this module, so either may load first.
from repro.arch import adapters
from repro.arch.registry import get_architecture
from repro.nn.inference import LayerWorkload, build_network_workloads
from repro.nn.networks import Network
from repro.scnn.oracle import oracle_cycles
from repro.timeloop.energy import EnergyBreakdown

#: The paper's trio: the registered architectures every layer simulation
#: evaluates, in the order their energy is reported.
TRIO = ("SCNN", "DCNN", "DCNN-opt")

# Post-ReLU output density assumed when the caller provides no measurement
# and no next-layer calibration is available (roughly half the outputs of a
# zero-mean pre-activation distribution are clamped).
DEFAULT_OUTPUT_DENSITY = 0.55


@dataclass
class LayerSimulation:
    """All simulation results of one layer.

    ``results`` holds each trio architecture's adapter result and ``energy``
    its :func:`~repro.arch.adapters.price_energy` breakdown, both keyed by
    architecture name in :data:`TRIO` order.
    """

    workload: LayerWorkload
    results: Dict[str, adapters.ArchLayerResult]
    oracle_cycles: int
    output_density: float
    energy: Dict[str, EnergyBreakdown]

    @property
    def scnn(self) -> adapters.ArchLayerResult:
        return self.results["SCNN"]

    @property
    def dcnn(self) -> adapters.ArchLayerResult:
        return self.results["DCNN"]

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
        """Summed cycles of a trio architecture, or of the oracle."""
        if which == "oracle":
            return sum(sim.oracle_cycles for sim in self.layers)
        return sum(sim.results[which].cycles for sim in self.layers)

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


def layer_simulation(
    workload: LayerWorkload,
    results: Sequence[adapters.ArchLayerResult],
    output_density: Optional[float] = None,
) -> LayerSimulation:
    """Assemble one layer's simulation from its trio adapter results.

    The oracle divides SCNN's valid products by the multiplier count, and
    every architecture's energy is priced by the one accounting,
    :func:`~repro.arch.adapters.price_energy`.
    """
    if output_density is None:
        output_density = DEFAULT_OUTPUT_DENSITY
    by_name = {result.architecture: result for result in results}
    return LayerSimulation(
        workload=workload,
        results=by_name,
        oracle_cycles=oracle_cycles(by_name["SCNN"].valid_products),
        output_density=output_density,
        energy={
            name: adapters.price_energy(
                get_architecture(name).config, result, workload, output_density
            )
            for name, result in by_name.items()
        },
    )


def network_simulation(
    network: Network,
    evaluated: Sequence[Tuple[LayerWorkload, Sequence[adapters.ArchLayerResult]]],
) -> NetworkSimulation:
    """Assemble a network simulation from each layer's workload and trio results.

    A layer's output activations are the next layer's input activations, so
    each layer's output density is its successor workload's measured input
    activation density (the last layer falls back to the default post-ReLU
    estimate).  This is how activation sparsity propagates between layers
    in the paper's flow: the compressed output of one layer is the next
    layer's input.
    """
    layers = []
    for index, (workload, results) in enumerate(evaluated):
        output_density = None
        if index + 1 < len(evaluated):
            output_density = evaluated[index + 1][0].activation_density
        layers.append(layer_simulation(workload, results, output_density))
    return NetworkSimulation(network=network, layers=layers)


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
    trio = [get_architecture(name) for name in TRIO]
    results = adapters.evaluate_layer(workload, trio)
    return layer_simulation(workload, results, output_density)


def simulate_network(
    network: Network,
    *,
    workloads: Optional[Sequence[LayerWorkload]] = None,
    seed: int = 0,
) -> NetworkSimulation:
    """Simulate every layer of ``network`` at its calibrated densities
    (see :func:`network_simulation` for how output densities propagate)."""
    if workloads is None:
        workloads = build_network_workloads(network, seed=seed)
    trio = [get_architecture(name) for name in TRIO]
    return network_simulation(
        network,
        [(workload, adapters.evaluate_layer(workload, trio)) for workload in workloads],
    )
