"""Planar tiling of a layer across the PE array (the "PT" in PT-IS-CP).

The activation plane is split into ``Wt x Ht`` tiles, one per PE; each tile
extends through all input channels.  Because the convolution window slides
across tile boundaries, each PE's output region overlaps its neighbours' by a
halo whose partial sums are exchanged at the end of every output-channel
group (the paper uses output halos).

This module also provides the fast, fully vectorised non-zero-count queries
the cycle-level model is built on, so whole networks can be simulated without
materialising compressed blocks in Python loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import ConvLayerSpec
from repro.tensor.coordinates import halo_extent
from repro.tensor.formats import TileExtent, partition_plane


def pe_grid_for(num_pes: int) -> Tuple[int, int]:
    """Choose the most square ``rows x cols`` grid with ``rows * cols == num_pes``."""
    if num_pes <= 0:
        raise ValueError("number of PEs must be positive")
    rows = int(np.sqrt(num_pes))
    while rows > 1 and num_pes % rows:
        rows -= 1
    return rows, num_pes // rows


@dataclass(frozen=True)
class TilingPlan:
    """How one layer is mapped onto the PE array.

    Attributes:
        spec: the layer being mapped.
        pe_rows, pe_cols: PE array grid.
        group_size: output-channel group size ``Kc``.
        input_tiles: planar extent of each PE's input tile (row-major PE order).
        output_tiles: planar extent of each PE's owned output region.
        halo_width: output columns/rows of partial sums spilled to a neighbour.
    """

    spec: ConvLayerSpec
    pe_rows: int
    pe_cols: int
    group_size: int
    input_tiles: Tuple[TileExtent, ...]
    output_tiles: Tuple[TileExtent, ...]
    halo_width: int
    halo_height: int

    @property
    def num_pes(self) -> int:
        return self.pe_rows * self.pe_cols

    @property
    def num_groups(self) -> int:
        return -(-self.spec.out_channels // self.group_size)

    def group_channels(self, group: int) -> Tuple[int, ...]:
        k_lo = group * self.group_size
        k_hi = min(self.spec.out_channels, k_lo + self.group_size)
        return tuple(range(k_lo, k_hi))

    def accumulator_entries_per_group(self) -> int:
        """Dense partial-sum entries a PE holds for one output-channel group.

        The accumulator covers the PE's owned output tile plus the output
        halo on each side (paper: ``Kc x (Wt + R - 1) x (Ht + S - 1)``).
        """
        widest = max(tile.width for tile in self.output_tiles)
        tallest = max(tile.height for tile in self.output_tiles)
        return (
            self.group_size
            * (widest + 2 * self.halo_width)
            * (tallest + 2 * self.halo_height)
        )

    def halo_fraction(self) -> float:
        """Fraction of accumulator entries that lie in the halo region."""
        widest = max(tile.width for tile in self.output_tiles)
        tallest = max(tile.height for tile in self.output_tiles)
        owned = widest * tallest
        total = (widest + 2 * self.halo_width) * (tallest + 2 * self.halo_height)
        if total == 0:
            return 0.0
        return 1.0 - owned / total


def plan_layer(
    spec: ConvLayerSpec,
    *,
    num_pes: int = 64,
    group_size: int = 8,
    pe_rows: int | None = None,
    pe_cols: int | None = None,
) -> TilingPlan:
    """Build the tiling plan of one layer for a given PE array size.

    The input plane is split as evenly as possible across the PE grid.  Small
    layers (planes smaller than the grid) simply leave some PEs without work,
    which is exactly the load-imbalance effect the paper's Figure 9 reports.

    Plans are memoised on ``(spec, num_pes, group_size, pe_rows, pe_cols)``:
    a DSE sweep re-plans the identical (layer, PE-grid) pair for every
    multiplier-array or accumulator-banking variant, so repeated requests
    return the same frozen :class:`TilingPlan` instance.
    """
    if pe_rows is None or pe_cols is None:
        pe_rows, pe_cols = pe_grid_for(num_pes)
    return _plan_layer_cached(spec, num_pes, group_size, pe_rows, pe_cols)


@lru_cache(maxsize=4096)
def _plane_tiles(
    height: int, width: int, rows: int, cols: int
) -> Tuple[TileExtent, ...]:
    """The tiles of one plane on one grid: one tuple, shared by every plan.

    Layers repeat a few plane sizes, and plans that differ only in group size
    have the same grid, so per-plan copies of these frozen tiles were the
    largest block of memory a warm DSE sweep over every registered workload
    retained.
    """
    return tuple(partition_plane(height, width, rows, cols))


@lru_cache(maxsize=4096)
def _plan_layer_cached(
    spec: ConvLayerSpec, num_pes: int, group_size: int, pe_rows: int, pe_cols: int
) -> TilingPlan:
    rows = min(pe_rows, spec.input_height)
    cols = min(pe_cols, spec.input_width)
    # Keep the grid size constant (idle PEs get empty tiles) so barrier and
    # utilization statistics are computed over the physical array.
    input_tiles = _padded_tiles(
        _plane_tiles(spec.input_height, spec.input_width, rows, cols),
        pe_rows,
        pe_cols,
        rows,
        cols,
    )
    output_tiles = _padded_tiles(
        _plane_tiles(spec.output_height, spec.output_width, rows, cols),
        pe_rows,
        pe_cols,
        rows,
        cols,
    )
    return TilingPlan(
        spec=spec,
        pe_rows=pe_rows,
        pe_cols=pe_cols,
        group_size=group_size,
        input_tiles=tuple(input_tiles),
        output_tiles=tuple(output_tiles),
        halo_width=halo_extent(spec.filter_width, spec.stride),
        halo_height=halo_extent(spec.filter_height, spec.stride),
    )


def _padded_tiles(
    tiles: Sequence[TileExtent],
    pe_rows: int,
    pe_cols: int,
    used_rows: int,
    used_cols: int,
) -> Sequence[TileExtent]:
    """Expand a ``used_rows x used_cols`` tile list to the full PE grid.

    PEs outside the used sub-grid receive empty tiles so every per-PE array
    in the cycle model has one entry per physical PE.
    """
    if used_rows == pe_rows and used_cols == pe_cols:
        return tiles
    grid: List[TileExtent] = []
    for r in range(pe_rows):
        for c in range(pe_cols):
            if r < used_rows and c < used_cols:
                grid.append(tiles[r * used_cols + c])
            else:
                grid.append(TileExtent(row=r, col=c, x_lo=0, x_hi=0, y_lo=0, y_hi=0))
    return grid


def _integral_image(mask: np.ndarray) -> np.ndarray:
    """Exclusive 2-D prefix sums of a ``(C, H, W)`` bool mask: ``(C, H+1, W+1)``.

    ``S[:, y, x]`` is the number of non-zeros in ``mask[:, :y, :x]``, so any
    rectangle count is four lookups — the key to evaluating all per-PE tile
    counts at once instead of slicing per tile.  Counts are int32 (a plane
    holds far fewer than 2**31 elements), half the memory traffic of int64.
    """
    num_c, height, width = mask.shape
    padded = np.zeros((num_c, height + 1, width + 1), dtype=np.int32)
    inner = padded[:, 1:, 1:]
    inner[...] = mask
    # Along the contiguous axis first, then down the rows one row at a time.
    np.cumsum(inner, axis=2, out=inner)
    for y in range(1, height):
        inner[:, y] += inner[:, y - 1]
    return padded


def phase_integral_images(mask: np.ndarray, stride: int) -> Tuple[np.ndarray, ...]:
    """Integral image of each stride phase of a ``(C, H, W)`` non-zero mask.

    Entry ``py * stride + px`` covers rows ``py::stride`` and columns
    ``px::stride``, the phase order of :func:`activation_phase_nonzeros`.
    The cycle model's tile counts and the oracle's windows both read these
    images, so :class:`repro.arch.adapters.LayerOperands` builds them once
    per layer and passes them to both.
    """
    mask = np.asarray(mask, dtype=bool)
    return tuple(
        _integral_image(mask[:, py::stride, px::stride])
        for py in range(stride)
        for px in range(stride)
    )


def _tile_bounds(plan: TilingPlan) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-PE ``(y_lo, y_hi, x_lo, x_hi)`` arrays of the plan's input tiles."""
    y_lo = np.array([tile.y_lo for tile in plan.input_tiles], dtype=np.int64)
    y_hi = np.array([tile.y_hi for tile in plan.input_tiles], dtype=np.int64)
    x_lo = np.array([tile.x_lo for tile in plan.input_tiles], dtype=np.int64)
    x_hi = np.array([tile.x_hi for tile in plan.input_tiles], dtype=np.int64)
    return y_lo, y_hi, x_lo, x_hi


def _rectangle_counts(
    integral: np.ndarray,
    y_lo: np.ndarray,
    y_hi: np.ndarray,
    x_lo: np.ndarray,
    x_hi: np.ndarray,
) -> np.ndarray:
    """Count non-zeros of every (channel, rectangle) pair: shape ``(tiles, C)``."""
    counts = (
        integral[:, y_hi, x_hi]
        - integral[:, y_lo, x_hi]
        - integral[:, y_hi, x_lo]
        + integral[:, y_lo, x_lo]
    )
    return counts.T


def activation_phase_nonzeros(
    activations: np.ndarray,
    plan: TilingPlan,
    stride: int,
    padding: int = 0,
    *,
    integrals: Optional[Sequence[np.ndarray]] = None,
) -> np.ndarray:
    """Non-zero activations per (PE, input channel, stride phase).

    For a strided convolution the Cartesian product is decomposed by stride
    phase: an activation at column ``x`` can only produce valid outputs with
    filter columns ``r`` satisfying ``(x + pad - r) % stride == 0``, so the
    activation stream of each (PE, channel) block is split into
    ``stride * stride`` phase sub-streams that each pair with exactly one
    weight phase sub-stream.  For ``stride == 1`` there is a single phase,
    whose counts are the plain non-zeros per (PE, input channel).

    All PEs are counted at once from a per-phase integral image, so the cost
    is independent of the PE-array size.  ``integrals`` are the images of
    :func:`phase_integral_images`, when the caller has built them already.

    Returns:
        Integer array of shape ``(num_pes, C, stride * stride)`` where the
        phase index is ``(y % stride) * stride + (x % stride)``.
    """
    activations = np.asarray(activations)
    if activations.ndim != 3:
        raise ValueError(f"expected (C, H, W) activations, got {activations.shape}")
    if stride <= 0:
        raise ValueError("stride must be positive")
    if integrals is None:
        integrals = phase_integral_images(activations, stride)
    num_c = activations.shape[0]
    counts = np.zeros((plan.num_pes, num_c, stride * stride), dtype=np.int64)
    y_lo, y_hi, x_lo, x_hi = _tile_bounds(plan)
    for py in range(stride):
        for px in range(stride):
            # Rows y = py + stride*j of the tile map to rows [j0, j1) of the
            # phase-decimated plane; ceil divisions pick the first/last
            # decimated row inside [y_lo, y_hi) (and likewise for columns).
            j0 = (y_lo - py + stride - 1) // stride
            j1 = (y_hi - py + stride - 1) // stride
            i0 = (x_lo - px + stride - 1) // stride
            i1 = (x_hi - px + stride - 1) // stride
            counts[:, :, py * stride + px] = _rectangle_counts(
                integrals[py * stride + px], j0, np.maximum(j0, j1), i0, np.maximum(i0, i1)
            )
    return counts


def weight_phase_nonzeros(
    weights: np.ndarray,
    group_size: int,
    stride: int,
    padding: int = 0,
) -> np.ndarray:
    """Non-zero weights per (output-channel group, input channel, *activation* phase).

    The phase axis is indexed by the activation phase each weight sub-stream
    pairs with, so the cycle model can match activation and weight phase
    sub-streams element-wise: an activation at phase ``(py, px)`` pairs with
    weights whose filter offsets satisfy ``r % stride == (px + pad) % stride``
    and ``s % stride == (py + pad) % stride``.

    Returns:
        Integer array of shape ``(num_groups, C', stride * stride)``.
    """
    weights = np.asarray(weights)
    if weights.ndim != 4:
        raise ValueError(f"expected (K, C, S, R) weights, got {weights.shape}")
    if group_size <= 0:
        raise ValueError("group size must be positive")
    if stride <= 0:
        raise ValueError("stride must be positive")
    # Fold the output channels into groups first: those sums run over whole
    # contiguous (C', S, R) blocks, and each phase's filter offsets are then
    # summed over an array ``group_size`` times smaller.
    grouped = _group_sums(np.asarray(weights, dtype=bool), group_size)
    counts = np.zeros(grouped.shape[:2] + (stride * stride,), dtype=np.int64)
    for py in range(stride):
        for px in range(stride):
            s_phase = (py + padding) % stride
            r_phase = (px + padding) % stride
            sub = grouped[:, :, s_phase::stride, r_phase::stride]
            counts[:, :, py * stride + px] = sub.sum(axis=(2, 3))
    return counts


def _group_sums(values: np.ndarray, group_size: int) -> np.ndarray:
    """Sum a ``(K, ...)`` array over output-channel groups: ``(ceil(K/Kc), ...)``.

    The K axis is zero-padded to a multiple of the group size so one reshape
    replaces the per-group Python loop.
    """
    num_k = values.shape[0]
    num_groups = -(-num_k // group_size)
    pad = num_groups * group_size - num_k
    if pad:
        widths = [(0, pad)] + [(0, 0)] * (values.ndim - 1)
        values = np.pad(values, widths)
    grouped = values.reshape((num_groups, group_size) + values.shape[1:])
    return grouped.sum(axis=1, dtype=np.int64)
