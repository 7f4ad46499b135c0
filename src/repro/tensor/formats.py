"""Layer-level compressed-sparse storage accounting, and planar tiling.

The SCNN dataflow compresses data at two granularities (paper Section III-B):

* **Weights** are grouped into blocks of one *output-channel group*: for each
  input channel ``c`` and each group of ``Kc`` consecutive output channels,
  the ``Kc x R x S`` weights form one compressed block.
* **Activations** in the OARAM are compressed one block per channel plane.

:class:`CompressedWeights` and :class:`CompressedActivations` encode a whole
layer's tensor block by block and keep the aggregate
:class:`~repro.tensor.compressed.BlockStatistics` the storage accounting
reads; the blocks themselves are not kept.  :func:`partition_plane` splits
a plane into the PE array's planar tiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.tensor.compressed import (
    BlockStatistics,
    DEFAULT_INDEX_BITS,
    compress_block,
)


class _CompressedLayer:
    """Storage accounting over the blocks of one encoded tensor."""

    statistics: BlockStatistics
    value_bits: int

    @property
    def density(self) -> float:
        return self.statistics.density

    def storage_bits(self) -> int:
        return self.statistics.storage_bits()

    def dense_storage_bits(self) -> int:
        return self.statistics.dense_elements * self.value_bits


class CompressedWeights(_CompressedLayer):
    """Storage of one convolutional layer's weights, encoded one block per
    (output-channel group, input channel) pair.

    Args:
        weights: dense weight tensor of shape ``(K, C, R, S)``.
        group_size: output-channel group size ``Kc``.
        index_bits: run-length index width.
        value_bits: data element width.
    """

    def __init__(
        self,
        weights: np.ndarray,
        group_size: int,
        *,
        index_bits: int = DEFAULT_INDEX_BITS,
        value_bits: int = 16,
    ) -> None:
        weights = np.asarray(weights)
        if weights.ndim != 4:
            raise ValueError(f"expected (K, C, R, S) weights, got shape {weights.shape}")
        if group_size <= 0:
            raise ValueError("output-channel group size must be positive")
        self.value_bits = value_bits
        self.statistics = BlockStatistics()
        for k_lo in range(0, weights.shape[0], group_size):
            for c in range(weights.shape[1]):
                self.statistics.add(
                    compress_block(
                        weights[k_lo : k_lo + group_size, c],
                        index_bits=index_bits,
                        value_bits=value_bits,
                    )
                )


class CompressedActivations(_CompressedLayer):
    """Storage of whole-plane (untiled) activations, encoded one block per
    channel.

    This is the representation used for OARAM storage accounting and DRAM
    traffic estimation, where tiling across PEs is irrelevant.
    """

    def __init__(
        self,
        activations: np.ndarray,
        *,
        index_bits: int = DEFAULT_INDEX_BITS,
        value_bits: int = 16,
    ) -> None:
        activations = np.asarray(activations)
        if activations.ndim != 3:
            raise ValueError(
                f"expected (C, H, W) activations, got shape {activations.shape}"
            )
        self.value_bits = value_bits
        self.statistics = BlockStatistics()
        for plane in activations:
            self.statistics.add(
                compress_block(plane, index_bits=index_bits, value_bits=value_bits)
            )


@dataclass(frozen=True)
class TileExtent:
    """Planar extent of one PE's activation tile."""

    row: int
    col: int
    x_lo: int
    x_hi: int
    y_lo: int
    y_hi: int

    @property
    def width(self) -> int:
        return self.x_hi - self.x_lo

    @property
    def height(self) -> int:
        return self.y_hi - self.y_lo

    @property
    def size(self) -> int:
        return self.width * self.height


def partition_plane(
    height: int, width: int, tile_rows: int, tile_cols: int
) -> List[TileExtent]:
    """Partition an ``H x W`` plane into a ``tile_rows x tile_cols`` grid.

    Tiles are as even as possible; when the plane does not divide evenly the
    leading tiles are one element larger (matching how the paper's simulator
    distributes uneven tiles across PEs).
    """
    if tile_rows <= 0 or tile_cols <= 0:
        raise ValueError("tile grid dimensions must be positive")

    def _splits(total: int, parts: int) -> List[Tuple[int, int]]:
        base, extra = divmod(total, parts)
        bounds = []
        start = 0
        for idx in range(parts):
            size = base + (1 if idx < extra else 0)
            bounds.append((start, start + size))
            start += size
        return bounds

    row_bounds = _splits(height, tile_rows)
    col_bounds = _splits(width, tile_cols)
    tiles = []
    for r, (y_lo, y_hi) in enumerate(row_bounds):
        for c, (x_lo, x_hi) in enumerate(col_bounds):
            tiles.append(
                TileExtent(row=r, col=c, x_lo=x_lo, x_hi=x_hi, y_lo=y_lo, y_hi=y_hi)
            )
    return tiles
