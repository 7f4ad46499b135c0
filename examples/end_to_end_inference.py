"""End-to-end inference: activation sparsity flowing from layer to layer.

The previous examples generate each layer's input activations independently.
This one follows the paper's system-level story instead: the compressed
output activations of one layer stay on chip (OARAM) and become the next
layer's input (IARAM), so the sparsity seen by layer N+1 is whatever ReLU
produced at layer N.

A scaled-down sequential CNN (AlexNet-shaped, smaller planes so the
element-exact simulator stays fast) is run twice:

* once with the dense reference (convolution + ReLU + pooling), and
* once layer by layer through the functional SCNN simulator, feeding each
  simulated output forward,

and the example checks that the two agree exactly, reports how the
activation density evolves through the network, and how the on-chip
IARAM/OARAM occupancy tracks it.

Run with::

    python examples/end_to_end_inference.py
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.arch import SCNN_CONFIG
from repro.nn import ConvLayerSpec
from repro.nn.networks import Network
from repro.nn.inference import run_forward
from repro.nn.pruning import generate_pruned_weights
from repro.nn.reference import max_pool2d
from repro.scnn import run_functional_layer
from repro.tensor import CompressedActivations


def tiny_network() -> Network:
    """A 4-layer sequential CNN small enough for element-exact simulation."""
    layers = (
        ConvLayerSpec("conv1", 3, 16, 33, 33, 5, 5, stride=2, padding=0),
        ConvLayerSpec("conv2", 16, 32, 15, 15, 3, 3, stride=1, padding=1),
        ConvLayerSpec("conv3", 32, 32, 7, 7, 3, 3, stride=1, padding=1),
        ConvLayerSpec("conv4", 32, 16, 7, 7, 3, 3, stride=1, padding=1),
    )
    return Network("TinyNet", layers)


def main() -> None:
    network = tiny_network()
    rng = np.random.default_rng(11)
    weight_densities = {"conv1": 0.8, "conv2": 0.45, "conv3": 0.4, "conv4": 0.4}
    weights = [
        generate_pruned_weights(spec, weight_densities[spec.name], rng)
        for spec in network.layers
    ]
    image = np.abs(rng.normal(size=(3, 33, 33)))  # a fully dense "input image"

    # Dense reference pass (conv + ReLU, pooling inserted where extents shrink).
    reference = run_forward(network, weights, image)

    # SCNN functional pass, feeding each compressed output forward.
    rows = []
    current = image
    capacity = SCNN_CONFIG.iaram_bytes * SCNN_CONFIG.num_pes
    for index, (spec, layer_weights) in enumerate(zip(network.layers, weights)):
        result = run_functional_layer(spec, layer_weights, current, SCNN_CONFIG)
        expected = reference[index].output
        assert np.allclose(result.output, expected), f"{spec.name} diverged"
        compressed = CompressedActivations(result.output)
        rows.append(
            (
                spec.name,
                f"{float(np.count_nonzero(current)) / current.size:.2f}",
                f"{result.output_density:.2f}",
                result.cycles,
                f"{result.multiplier_utilization:.2f}",
                f"{compressed.storage_bits() / 8 / 1024:.1f} KB",
                f"{compressed.storage_bits() / 8 / capacity:.1%}",
            )
        )
        # The OARAM of this layer becomes the IARAM of the next (logical swap).
        if index + 1 < len(network.layers):
            next_spec = network.layers[index + 1]
            current = result.output
            if current.shape[1] != next_spec.input_height:
                current = max_pool2d(current, 3, 2)

    print(
        format_table(
            [
                "Layer",
                "IA density",
                "OA density",
                "SCNN cycles",
                "Mult util",
                "Compressed OA",
                "OARAM occupancy",
            ],
            rows,
            title="End-to-end functional inference on TinyNet",
        )
    )
    print(
        "\nEvery simulated layer matched the dense reference bit-for-bit, and the\n"
        "compressed output of each layer fits comfortably in the OARAM before being\n"
        "swapped in as the next layer's IARAM — the no-DRAM steady state the paper\n"
        "relies on for AlexNet and GoogLeNet."
    )


if __name__ == "__main__":
    main()
