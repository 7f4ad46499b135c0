"""Quickstart: simulate one pruned CNN on SCNN and on the dense baseline.

This example walks the three steps every user of the library goes through:

1. pick a network from the catalogue (AlexNet here),
2. generate a sparse workload for it (pruned weights + ReLU-sparse
   activations at the calibrated per-layer densities),
3. simulate it on SCNN and on the equally-provisioned dense DCNN baseline,
   and look at the speedup, energy and utilization the paper reports.

Run with::

    python examples/quickstart.py
"""

from repro import SimulationEngine, get_network
from repro.analysis.reporting import format_table
from repro.arch.compare import network_comparison


def main() -> None:
    network = get_network("alexnet")
    print(f"Simulating {network.name}: {len(network)} convolutional layers")
    for spec in network:
        print(f"  {spec.describe()}")

    simulation = SimulationEngine(cache_dir=False).run_network(network, seed=0)

    rows = []
    for layer in simulation.layers:
        rows.append(
            (
                layer.layer_name,
                f"{layer.workload.weight_density:.2f}",
                f"{layer.workload.activation_density:.2f}",
                layer.dcnn.cycles,
                layer.scnn.cycles,
                f"{layer.scnn_speedup:.2f}x",
                f"{layer.scnn.multiplier_utilization:.2f}",
                f"{layer.energy_relative_to_dcnn('SCNN'):.2f}",
            )
        )
    print()
    print(
        format_table(
            [
                "Layer",
                "W density",
                "IA density",
                "DCNN cycles",
                "SCNN cycles",
                "Speedup",
                "Mult util",
                "Energy vs DCNN",
            ],
            rows,
            title="Per-layer results",
        )
    )

    comparison = network_comparison(simulation)
    print()
    print(f"Network speedup over DCNN:        {comparison.speedup('SCNN'):.2f}x")
    print(f"Oracle (upper bound) speedup:     {comparison.oracle_speedup:.2f}x")
    print(
        "Energy relative to DCNN:          "
        f"SCNN {comparison.energy_ratio('SCNN'):.2f}, "
        f"DCNN-opt {comparison.energy_ratio('DCNN-opt'):.2f}"
    )


if __name__ == "__main__":
    main()
