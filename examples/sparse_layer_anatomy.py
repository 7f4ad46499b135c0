"""Anatomy of one sparse layer: compression, dataflow and exact simulation.

This example dissects what SCNN actually does to a single convolutional
layer, using the element-exact functional simulator:

* how the run-length compressed encoding stores the pruned weights and the
  ReLU-sparse activations (and how much storage it saves),
* how the layer is planar-tiled across the 8x8 PE array and how large the
  output halos are,
* how many Cartesian-product issue steps, accumulator-bank conflicts and
  halo partial-sums the layer generates, and
* that the simulated output matches a dense reference convolution exactly.

Run with::

    python examples/sparse_layer_anatomy.py
"""

import numpy as np

from repro.arch import SCNN_CONFIG
from repro.dataflow.tiling import plan_layer
from repro.nn import ConvLayerSpec
from repro.nn.inference import generate_activations
from repro.nn.pruning import generate_pruned_weights
from repro.nn.reference import conv2d_layer, relu
from repro.scnn import run_functional_layer
from repro.tensor import CompressedWeights, CompressedActivations


def main() -> None:
    # A GoogLeNet-like 3x3 layer, scaled down so the element-exact simulator
    # runs in a couple of seconds.
    spec = ConvLayerSpec(
        "demo_3x3", in_channels=32, out_channels=32,
        input_height=28, input_width=28,
        filter_height=3, filter_width=3, padding=1,
    )
    rng = np.random.default_rng(7)
    weights = generate_pruned_weights(spec, density=0.35, rng=rng)
    activations = generate_activations(spec, density=0.45, rng=rng)

    print(f"Layer: {spec.describe()}")
    print(f"Dense multiplies: {spec.multiplies:,}")

    # --- compressed-sparse storage --------------------------------------------
    compressed_weights = CompressedWeights(weights, SCNN_CONFIG.output_channel_group)
    compressed_acts = CompressedActivations(activations)
    print("\nCompressed-sparse storage:")
    print(
        f"  weights: density {compressed_weights.density:.2f}, "
        f"{compressed_weights.dense_storage_bits() // 8:,} B dense -> "
        f"{compressed_weights.storage_bits() // 8:,} B compressed "
        f"({compressed_weights.statistics.compression_ratio():.2f}x)"
    )
    print(
        f"  activations: density {compressed_acts.density:.2f}, "
        f"{compressed_acts.dense_storage_bits() // 8:,} B dense -> "
        f"{compressed_acts.storage_bits() // 8:,} B compressed "
        f"({compressed_acts.statistics.compression_ratio():.2f}x)"
    )

    # --- tiling across the PE array ------------------------------------------
    plan = plan_layer(spec, num_pes=SCNN_CONFIG.num_pes,
                      group_size=SCNN_CONFIG.output_channel_group)
    busiest = max(plan.input_tiles, key=lambda tile: tile.size)
    print("\nPlanar tiling:")
    print(f"  PE grid: {plan.pe_rows}x{plan.pe_cols}, output-channel groups: {plan.num_groups}")
    print(f"  largest input tile: {busiest.height}x{busiest.width}")
    print(f"  accumulator entries per group: {plan.accumulator_entries_per_group()}")
    print(f"  halo fraction of the accumulator: {plan.halo_fraction():.2f}")

    # --- element-exact simulation ---------------------------------------------
    result = run_functional_layer(spec, weights, activations)
    reference = relu(conv2d_layer(activations, weights, spec))
    max_error = float(np.abs(result.output - reference).max())
    print("\nFunctional simulation (PT-IS-CP-sparse):")
    print(f"  cycles: {result.cycles:,}")
    print(f"  non-zero multiplies performed: {result.multiplies:,} "
          f"({result.multiplies / spec.multiplies:.2f} of dense)")
    print(f"  multiplier utilization: {result.multiplier_utilization:.2f}")
    print(f"  barrier idle fraction: {result.idle_fraction:.2f}")
    print(f"  halo partial sums exchanged: {result.halo_products:,}")
    conflicts = result.conflict_statistics
    print(f"  accumulator conflicts: avg {conflicts.average_conflict_cycles:.2f} "
          f"extra bank-cycles/step, worst bank load {conflicts.max_bank_load}")
    print(f"  output density after ReLU: {result.output_density:.2f}")
    print(f"  max |simulated - reference|: {max_error:.2e}")
    assert max_error < 1e-9, "functional simulation must match the dense reference"


if __name__ == "__main__":
    main()
