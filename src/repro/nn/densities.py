"""Per-layer weight and activation density calibration (paper Figure 1).

The paper measures these densities on networks pruned with Han et al.'s
algorithm and on ImageNet validation inputs instrumented through Caffe.  We
do not have those artifacts, so this module records a calibration table that
reproduces the published per-layer densities: weight density between roughly
0.3 and 0.85 with the first layer densest, activation density between roughly
0.3 and 1.0 with the input layer fully dense and later layers sparser.

The simulator treats these numbers only as targets for synthetic weight
pruning and activation generation; every downstream result (Figures 7-10)
is computed from the actual non-zero structure of the generated tensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.nn.layers import ConvLayerSpec
from repro.nn.networks import Network


@dataclass(frozen=True)
class LayerSparsity:
    """Densities (fraction of non-zeros) of one layer's operands."""

    weight_density: float
    activation_density: float

    def __post_init__(self) -> None:
        for label, value in (
            ("weight_density", self.weight_density),
            ("activation_density", self.activation_density),
        ):
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{label} must be in (0, 1], got {value}")


# AlexNet: weight densities follow the published Han et al. pruning results
# (conv1 kept ~84%, later layers ~35-40%); activation densities follow the
# paper's Figure 1a (conv1 input fully dense, later inputs ~40-50%).
_ALEXNET: Dict[str, LayerSparsity] = {
    "conv1": LayerSparsity(0.84, 1.00),
    "conv2": LayerSparsity(0.38, 0.49),
    "conv3": LayerSparsity(0.35, 0.39),
    "conv4": LayerSparsity(0.37, 0.43),
    "conv5": LayerSparsity(0.37, 0.43),
}

# VGG-16: weight densities from the published VGG pruning table; activation
# densities from Figure 1c (first layer dense, mid layers 0.3-0.5).
_VGGNET: Dict[str, LayerSparsity] = {
    "conv1_1": LayerSparsity(0.58, 1.00),
    "conv1_2": LayerSparsity(0.30, 0.62),
    "conv2_1": LayerSparsity(0.40, 0.52),
    "conv2_2": LayerSparsity(0.42, 0.48),
    "conv3_1": LayerSparsity(0.53, 0.48),
    "conv3_2": LayerSparsity(0.32, 0.44),
    "conv3_3": LayerSparsity(0.42, 0.40),
    "conv4_1": LayerSparsity(0.38, 0.42),
    "conv4_2": LayerSparsity(0.33, 0.38),
    "conv4_3": LayerSparsity(0.38, 0.35),
    "conv5_1": LayerSparsity(0.35, 0.38),
    "conv5_2": LayerSparsity(0.33, 0.38),
    "conv5_3": LayerSparsity(0.36, 0.40),
}

# GoogLeNet: the paper shows representative inception modules (3a and 5b) in
# Figure 1b, with weight density reaching a minimum of ~30% and activation
# density typically higher in early modules.  We assign a per-module baseline
# that decays from the early to the late modules and a per-branch adjustment
# (reduce layers tend to stay denser than their expand partners).
_GOOGLENET_MODULE_BASE: Dict[str, Tuple[float, float]] = {
    # module: (weight density baseline, activation density baseline)
    "stem": (0.70, 0.95),
    "IC_3a": (0.45, 0.62),
    "IC_3b": (0.42, 0.58),
    "IC_4a": (0.40, 0.52),
    "IC_4b": (0.38, 0.48),
    "IC_4c": (0.36, 0.45),
    "IC_4d": (0.35, 0.42),
    "IC_4e": (0.33, 0.40),
    "IC_5a": (0.32, 0.38),
    "IC_5b": (0.30, 0.35),
}

_GOOGLENET_BRANCH_ADJUST: Dict[str, Tuple[float, float]] = {
    # branch suffix: (weight density multiplier, activation density multiplier)
    "1x1": (1.10, 1.00),
    "3x3_reduce": (1.15, 1.00),
    "3x3": (0.95, 1.00),
    "5x5_reduce": (1.15, 1.00),
    "5x5": (0.90, 1.00),
    "pool_proj": (1.05, 0.90),
    "7x7_s2": (1.20, 1.05),
}

_DEFAULT = LayerSparsity(0.40, 0.45)

#: Densities below this floor are clamped up: a target density of exactly
#: zero cannot be represented by :class:`LayerSparsity` and would leave the
#: workload generators nothing to place.  Shared with the density-profile
#: library (:mod:`repro.workloads.profiles`).
MIN_DENSITY = 0.05


def _clamp_density(value: float) -> float:
    return max(MIN_DENSITY, min(1.0, value))


def _googlenet_layer(spec: ConvLayerSpec) -> LayerSparsity:
    module = spec.module or "IC_4c"
    base_w, base_a = _GOOGLENET_MODULE_BASE.get(module, (0.36, 0.45))
    branch = spec.name.split("/")[-1]
    adj_w, adj_a = _GOOGLENET_BRANCH_ADJUST.get(branch, (1.0, 1.0))
    return LayerSparsity(
        _clamp_density(base_w * adj_w), _clamp_density(base_a * adj_a)
    )


def sparsity_for_layer(network_name: str, spec: ConvLayerSpec) -> LayerSparsity:
    """Calibrated densities of one layer of one catalogue network.

    Matching is exact (plus the registered ``googlenet-stem`` variant, whose
    stem layers the GoogLeNet calibration covers via their ``stem`` module
    label); unrelated networks — whatever their display name — get the flat
    default calibration.
    """
    key = network_name.strip().lower()
    if key == "alexnet":
        return _ALEXNET.get(spec.name, _DEFAULT)
    if key == "vggnet":
        return _VGGNET.get(spec.name, _DEFAULT)
    if key in ("googlenet", "googlenet-stem"):
        return _googlenet_layer(spec)
    return _DEFAULT


def network_sparsity(network: Network) -> Dict[str, LayerSparsity]:
    """Calibration table for every layer of ``network``, keyed by layer name."""
    return {
        spec.name: sparsity_for_layer(network.name, spec) for spec in network.layers
    }


def uniform_sparsity(network: Network, density: float) -> Dict[str, LayerSparsity]:
    """Assign the same weight and activation density to every layer.

    Used by the Figure 7 density-sweep experiment, which artificially sweeps
    the weight and activation densities together from 1.0 down to 0.1.
    """
    table = LayerSparsity(density, density)
    return {spec.name: table for spec in network.layers}

