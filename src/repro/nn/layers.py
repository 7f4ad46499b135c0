"""Convolutional layer shape algebra.

A :class:`ConvLayerSpec` captures the seven CNN loop-nest parameters from the
paper's Figure 2 (``N`` is fixed to 1 for inference, as in the paper) plus
stride, padding and channel groups, and derives every quantity the rest of
the system needs: output extents, multiply counts, weight/activation
footprints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.tensor.coordinates import output_extent


class LayerShapeError(ValueError):
    """Raised when a layer specification is internally inconsistent."""


BYTES_PER_VALUE = 2  # 16-bit weights/activations, as in the paper (Table I).


@dataclass(frozen=True)
class ConvLayerSpec:
    """Shape of one convolutional layer.

    Attributes:
        name: layer name as used in the paper's figures (e.g. ``conv3_1``).
        in_channels: number of input channels ``C``.
        out_channels: number of output channels ``K``.
        input_height: input activation plane height ``H``.
        input_width: input activation plane width ``W``.
        filter_height: filter height ``S`` (rows).
        filter_width: filter width ``R`` (columns).
        stride: convolution stride (same in both dimensions).
        padding: zero padding on each border.
        groups: channel groups (AlexNet conv2/4/5 use 2); weights connect
            ``in_channels/groups`` inputs to each output channel.
        module: optional grouping label (e.g. GoogLeNet inception module id).
    """

    name: str
    in_channels: int
    out_channels: int
    input_height: int
    input_width: int
    filter_height: int
    filter_width: int
    stride: int = 1
    padding: int = 0
    groups: int = 1
    module: str = ""

    def __post_init__(self) -> None:
        positives = {
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "input_height": self.input_height,
            "input_width": self.input_width,
            "filter_height": self.filter_height,
            "filter_width": self.filter_width,
            "stride": self.stride,
            "groups": self.groups,
        }
        for label, value in positives.items():
            if value <= 0:
                raise LayerShapeError(f"{label} must be positive, got {value}")
        if self.padding < 0:
            raise LayerShapeError(f"padding must be non-negative, got {self.padding}")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise LayerShapeError(
                f"channels ({self.in_channels}, {self.out_channels}) not divisible "
                f"by groups {self.groups}"
            )
        # Trigger extent validation early so bad specs fail at construction.
        try:
            _ = self.output_height
            _ = self.output_width
        except ValueError as error:
            raise LayerShapeError(str(error)) from error

    # -- derived extents -----------------------------------------------------

    @property
    def output_height(self) -> int:
        return output_extent(
            self.input_height, self.filter_height, self.stride, self.padding
        )

    @property
    def output_width(self) -> int:
        return output_extent(
            self.input_width, self.filter_width, self.stride, self.padding
        )

    @property
    def output_shape(self) -> Tuple[int, int, int]:
        """Output activation shape ``(K, H_out, W_out)``."""
        return (self.out_channels, self.output_height, self.output_width)

    @property
    def input_shape(self) -> Tuple[int, int, int]:
        """Input activation shape ``(C, H, W)``."""
        return (self.in_channels, self.input_height, self.input_width)

    @property
    def weight_shape(self) -> Tuple[int, int, int, int]:
        """Weight tensor shape ``(K, C/groups, S, R)``."""
        return (
            self.out_channels,
            self.in_channels // self.groups,
            self.filter_height,
            self.filter_width,
        )

    # -- derived counts --------------------------------------------------------

    @property
    def weight_count(self) -> int:
        k, c, s, r = self.weight_shape
        return k * c * s * r

    @property
    def input_activation_count(self) -> int:
        c, h, w = self.input_shape
        return c * h * w

    @property
    def output_activation_count(self) -> int:
        k, h, w = self.output_shape
        return k * h * w

    @property
    def multiplies(self) -> int:
        """Dense multiply count for one inference pass of this layer."""
        return (
            self.output_height
            * self.output_width
            * self.out_channels
            * (self.in_channels // self.groups)
            * self.filter_height
            * self.filter_width
        )

    # -- footprints ------------------------------------------------------------

    @property
    def weight_bytes(self) -> int:
        return self.weight_count * BYTES_PER_VALUE

    @property
    def input_activation_bytes(self) -> int:
        return self.input_activation_count * BYTES_PER_VALUE

    def describe(self) -> str:
        """One-line human-readable summary of the layer shape."""
        return (
            f"{self.name}: {self.in_channels}x{self.input_height}x{self.input_width}"
            f" -> {self.out_channels}x{self.output_height}x{self.output_width}"
            f" ({self.filter_height}x{self.filter_width}/{self.stride}"
            f"{', groups=' + str(self.groups) if self.groups > 1 else ''})"
        )
