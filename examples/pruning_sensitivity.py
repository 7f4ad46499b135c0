"""How far do you have to prune before SCNN pays off?

The paper's headline claim is conditional: SCNN beats a comparably
provisioned dense accelerator *once weights and activations are sparse
enough* (below ~85% density each).  This example takes AlexNet, keeps the
activation sparsity fixed at what ReLU produces, and sweeps the pruning level
of the weights — the knob a deployment engineer actually controls — to find
the break-even point for both performance and energy.

Unlike the Figure 7 sweep (which uses the analytical model and scales both
densities), this example builds real pruned tensors for every point and runs
the cycle-level model, so vector fragmentation and load imbalance are fully
captured.

Run with::

    python examples/pruning_sensitivity.py
"""

import numpy as np

from repro import SimulationEngine, get_network
from repro.analysis.reporting import format_table
from repro.arch.compare import network_comparison
from repro.nn.densities import LayerSparsity, network_sparsity

PRUNING_LEVELS = (1.0, 0.8, 0.6, 0.4, 0.2, 0.1)


def main() -> None:
    network = get_network("alexnet")
    baseline = network_sparsity(network)
    engine = SimulationEngine(cache_dir=False)

    rows = []
    for weight_density in PRUNING_LEVELS:
        # Keep each layer's measured activation density, override the weight
        # density with the swept pruning level.
        calibration = {
            name: LayerSparsity(weight_density, sparsity.activation_density)
            for name, sparsity in baseline.items()
        }
        simulation = engine.run_network(network, seed=3, sparsity=calibration)
        comparison = network_comparison(simulation)
        densities = [layer.workload.activation_density for layer in simulation.layers]
        rows.append(
            (
                f"{weight_density:.0%}",
                f"{np.mean(densities):.2f}",
                f"{comparison.speedup('SCNN'):.2f}x",
                f"{comparison.oracle_speedup:.2f}x",
                f"{comparison.energy_ratio('SCNN'):.2f}",
                f"{comparison.energy_ratio('DCNN-opt'):.2f}",
            )
        )

    print(
        format_table(
            [
                "Weights kept",
                "Avg IA density",
                "SCNN speedup",
                "Oracle speedup",
                "SCNN energy vs DCNN",
                "DCNN-opt energy vs DCNN",
            ],
            rows,
            title="AlexNet: SCNN benefit as a function of pruning level",
        )
    )
    print(
        "\nReading the table: with unpruned weights SCNN is no faster than the dense\n"
        "baseline (the activation sparsity alone is not enough to cover the sparse\n"
        "dataflow's overheads); past roughly 60-40% kept weights both the speedup\n"
        "and the energy advantage open up, which is the regime the paper's pruned\n"
        "networks (20-80% kept, Figure 1) live in."
    )


if __name__ == "__main__":
    main()
