"""Layer- and network-level simulation records.

:func:`layer_simulation` assembles one layer from its results on the
paper's trio (SCNN, DCNN and DCNN-opt), which
:func:`repro.arch.adapters.evaluate_layer` computes like any other
architecture's, with the oracle bound and the energy of each.
:func:`network_simulation` assembles a network from its trio cells of
:meth:`repro.engine.SimulationEngine.run_architectures` and prices their
energy, for ``run_network`` and ``compare_network`` alike: serially, on a
process pool or from the engine's cache, bit for bit.  Network-level totals,
speedups, energy ratios and module aggregates are read from a
:class:`repro.arch.compare.NetworkComparison` built from the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

# The module, not its names: repro.arch.adapters imports the models of this
# package, whose init imports this module, so either may load first.
from repro.arch import adapters
from repro.arch.registry import get_architecture
from repro.nn.inference import LayerWorkload
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

    ``results`` holds each trio architecture's layer result and ``energy``
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
    """Per-layer results of one network, in layer order.

    :func:`repro.arch.compare.network_comparison` aggregates them.
    """

    network: Network
    layers: List[LayerSimulation]

    def layer(self, name: str) -> LayerSimulation:
        for sim in self.layers:
            if sim.layer_name == name:
                return sim
        raise KeyError(f"no simulated layer named {name!r}")


def layer_simulation(
    workload: LayerWorkload,
    results: Sequence[adapters.ArchLayerResult],
    output_density: Optional[float] = None,
) -> LayerSimulation:
    """Assemble one layer's simulation from its trio layer results.

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

