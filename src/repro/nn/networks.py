"""Layer catalogues of the networks the paper evaluates.

The catalogues list every convolutional layer of AlexNet, GoogLeNet and
VGG-16 with the shapes used by the Caffe BVLC reference models (the source
the paper uses, Table I).  Only convolutional layers are modelled — the paper
explicitly restricts its evaluation to them ("we focus on accelerating the
convolutional layers as they constitute the majority of the computation").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.nn.layers import ConvLayerSpec


@dataclass(frozen=True)
class Network:
    """An ordered collection of convolutional layers."""

    name: str
    layers: Tuple[ConvLayerSpec, ...]

    def __post_init__(self) -> None:
        names = [layer.name for layer in self.layers]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate layer names in network {self.name}")

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def layer(self, name: str) -> ConvLayerSpec:
        for spec in self.layers:
            if spec.name == name:
                return spec
        raise KeyError(f"network {self.name} has no layer named {name!r}")

    # -- aggregate characteristics (Table I) -----------------------------------

    @property
    def total_multiplies(self) -> int:
        return sum(layer.multiplies for layer in self.layers)

    @property
    def max_layer_weight_bytes(self) -> int:
        return max(layer.weight_bytes for layer in self.layers)

    @property
    def max_layer_activation_bytes(self) -> int:
        return max(layer.input_activation_bytes for layer in self.layers)

    @property
    def conv_layer_count(self) -> int:
        return len(self.layers)


def alexnet() -> Network:
    """AlexNet's five convolutional layers (Caffe BVLC reference, 227x227 input)."""
    layers = (
        ConvLayerSpec("conv1", 3, 96, 227, 227, 11, 11, stride=4, padding=0),
        ConvLayerSpec("conv2", 96, 256, 27, 27, 5, 5, stride=1, padding=2, groups=2),
        ConvLayerSpec("conv3", 256, 384, 13, 13, 3, 3, stride=1, padding=1),
        ConvLayerSpec("conv4", 384, 384, 13, 13, 3, 3, stride=1, padding=1, groups=2),
        ConvLayerSpec("conv5", 384, 256, 13, 13, 3, 3, stride=1, padding=1, groups=2),
    )
    return Network("AlexNet", layers)


# GoogLeNet inception module channel configuration:
# (#1x1, #3x3_reduce, #3x3, #5x5_reduce, #5x5, pool_proj), keyed by module id,
# together with the module's input channel count and spatial extent.
_INCEPTION_CONFIG: Dict[str, Tuple[int, int, Tuple[int, int, int, int, int, int]]] = {
    "IC_3a": (192, 28, (64, 96, 128, 16, 32, 32)),
    "IC_3b": (256, 28, (128, 128, 192, 32, 96, 64)),
    "IC_4a": (480, 14, (192, 96, 208, 16, 48, 64)),
    "IC_4b": (512, 14, (160, 112, 224, 24, 64, 64)),
    "IC_4c": (512, 14, (128, 128, 256, 24, 64, 64)),
    "IC_4d": (512, 14, (112, 144, 288, 32, 64, 64)),
    "IC_4e": (528, 14, (256, 160, 320, 32, 128, 128)),
    "IC_5a": (832, 7, (256, 160, 320, 32, 128, 128)),
    "IC_5b": (832, 7, (384, 192, 384, 48, 128, 128)),
}


def _inception_module(module: str) -> List[ConvLayerSpec]:
    in_channels, extent, config = _INCEPTION_CONFIG[module]
    n1x1, n3x3r, n3x3, n5x5r, n5x5, pool_proj = config
    prefix = module
    return [
        ConvLayerSpec(
            f"{prefix}/1x1", in_channels, n1x1, extent, extent, 1, 1, module=module
        ),
        ConvLayerSpec(
            f"{prefix}/3x3_reduce",
            in_channels,
            n3x3r,
            extent,
            extent,
            1,
            1,
            module=module,
        ),
        ConvLayerSpec(
            f"{prefix}/3x3", n3x3r, n3x3, extent, extent, 3, 3, padding=1, module=module
        ),
        ConvLayerSpec(
            f"{prefix}/5x5_reduce",
            in_channels,
            n5x5r,
            extent,
            extent,
            1,
            1,
            module=module,
        ),
        ConvLayerSpec(
            f"{prefix}/5x5", n5x5r, n5x5, extent, extent, 5, 5, padding=2, module=module
        ),
        ConvLayerSpec(
            f"{prefix}/pool_proj",
            in_channels,
            pool_proj,
            extent,
            extent,
            1,
            1,
            module=module,
        ),
    ]


def googlenet(include_stem: bool = False) -> Network:
    """GoogLeNet's 54 inception convolutional layers (9 modules x 6 layers).

    The paper's Table I counts 54 convolutional layers and its evaluation
    "primarily focuses on the convolutional layers that are within the
    inception modules", so the default catalogue contains exactly those.
    Pass ``include_stem=True`` to prepend the three stem convolutions.
    """
    layers: List[ConvLayerSpec] = []
    if include_stem:
        layers.extend(
            [
                ConvLayerSpec(
                    "conv1/7x7_s2", 3, 64, 224, 224, 7, 7, stride=2, padding=3,
                    module="stem",
                ),
                ConvLayerSpec(
                    "conv2/3x3_reduce", 64, 64, 56, 56, 1, 1, module="stem"
                ),
                ConvLayerSpec(
                    "conv2/3x3", 64, 192, 56, 56, 3, 3, padding=1, module="stem"
                ),
            ]
        )
    for module in _INCEPTION_CONFIG:
        layers.extend(_inception_module(module))
    return Network("GoogLeNet", tuple(layers))


def vggnet() -> Network:
    """VGG-16's thirteen convolutional layers (224x224 input, all 3x3/1 pad 1)."""
    plan = [
        ("conv1_1", 3, 64, 224),
        ("conv1_2", 64, 64, 224),
        ("conv2_1", 64, 128, 112),
        ("conv2_2", 128, 128, 112),
        ("conv3_1", 128, 256, 56),
        ("conv3_2", 256, 256, 56),
        ("conv3_3", 256, 256, 56),
        ("conv4_1", 256, 512, 28),
        ("conv4_2", 512, 512, 28),
        ("conv4_3", 512, 512, 28),
        ("conv5_1", 512, 512, 14),
        ("conv5_2", 512, 512, 14),
        ("conv5_3", 512, 512, 14),
    ]
    layers = tuple(
        ConvLayerSpec(name, c_in, c_out, extent, extent, 3, 3, stride=1, padding=1)
        for name, c_in, c_out, extent in plan
    )
    return Network("VGGNet", layers)


def available_networks() -> List[str]:
    """Names accepted by :func:`get_network` — a live registry view.

    Historically this returned the hard-coded paper trio; it is now a shim
    over the workload registry (:mod:`repro.workloads.registry`), so networks
    registered at runtime appear here immediately.  Sorted for stable
    display; see :func:`repro.workloads.available_workloads` for
    registration order.
    """
    from repro.workloads.registry import available_workloads

    return sorted(available_workloads())


def get_network(name: str) -> Network:
    """Build a registered network by (case-insensitive) name.

    A shim over the workload registry: the paper catalogue (``alexnet``,
    ``googlenet``, ``googlenet-stem``, ``vggnet``) is built by this module's
    builders exactly as before, and any workload registered at runtime —
    synthetic or user-defined — resolves the same way.  Unknown names raise
    a :class:`KeyError` that lists the catalogue.
    """
    from repro.workloads.registry import resolve_network

    return resolve_network(name)
