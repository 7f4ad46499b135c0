"""CNN network substrate: layer shapes, network catalogues, pruning, inference.

The SCNN evaluation is driven by three ImageNet-era networks (AlexNet,
GoogLeNet, VGG-16).  The paper extracts pruned weights and measured
activations from Caffe; this package replaces that dependency with

* exact layer-shape catalogues of the three networks,
* per-layer density calibration matching the paper's Figure 1,
* magnitude pruning of synthetic weights to those densities, and
* a dense reference convolution plus a forward-inference driver that
  generates activation sparsity through ReLU.
"""

from repro.nn.densities import LayerSparsity, network_sparsity, sparsity_for_layer
from repro.nn.inference import generate_activations, run_forward
from repro.nn.layers import ConvLayerSpec, LayerShapeError
from repro.nn.networks import (
    Network,
    alexnet,
    available_networks,
    get_network,
    googlenet,
    vggnet,
)
from repro.nn.pruning import generate_dense_weights, prune_to_density
from repro.nn.reference import conv2d_dense, max_pool2d, relu

__all__ = [
    "ConvLayerSpec",
    "LayerShapeError",
    "LayerSparsity",
    "Network",
    "alexnet",
    "available_networks",
    "conv2d_dense",
    "generate_activations",
    "generate_dense_weights",
    "get_network",
    "googlenet",
    "max_pool2d",
    "network_sparsity",
    "prune_to_density",
    "relu",
    "run_forward",
    "sparsity_for_layer",
    "vggnet",
]
