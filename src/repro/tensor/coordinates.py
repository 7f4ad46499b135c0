"""Coordinate arithmetic of the dataflow.

The SCNN PE computes output coordinates on the fly from the coordinates
embedded in the compressed weight and activation streams (paper Section III-B:
"output coordinates are not derived from loop indices in a state machine but
from the coordinates of non-zero values embedded in the compressed format").
These helpers centralise that arithmetic so the functional simulator, the
cycle model and the tests all agree on it.
"""

from __future__ import annotations

from typing import Tuple


def output_coordinate(
    input_x: int,
    input_y: int,
    filter_r: int,
    filter_s: int,
    *,
    stride: int = 1,
    pad: int = 0,
) -> Tuple[int, int] | None:
    """Output-plane coordinate hit by one (activation, weight) product.

    Given an input activation at ``(input_x, input_y)`` (coordinates within
    the padded-free input plane) and a weight at filter offset
    ``(filter_r, filter_s)``, return the output coordinate ``(out_x, out_y)``
    the product contributes to, or ``None`` if the product falls outside the
    output plane or between stride points.

    The convention matches the standard cross-correlation used by CNN
    frameworks: ``out[x, y] += in[x * stride - pad + r, y * stride - pad + s]``.
    """
    num_x = input_x + pad - filter_r
    num_y = input_y + pad - filter_s
    if num_x < 0 or num_y < 0:
        return None
    if num_x % stride or num_y % stride:
        return None
    return num_x // stride, num_y // stride


def output_extent(input_size: int, filter_size: int, stride: int, pad: int) -> int:
    """Number of output positions along one spatial dimension."""
    extent = (input_size + 2 * pad - filter_size) // stride + 1
    if extent <= 0:
        raise ValueError(
            "layer produces no output: "
            f"input={input_size} filter={filter_size} stride={stride} pad={pad}"
        )
    return extent


def halo_extent(filter_size: int, stride: int) -> int:
    """Width of the output halo one planar tile spills onto its neighbour.

    With output halos (paper Section III-A), a PE computing a ``Wt x Ht``
    input tile produces partial sums for up to ``(filter_size - 1) // stride``
    output columns owned by the neighbouring PE on each side.
    """
    return max(0, (filter_size - 1) // stride)
