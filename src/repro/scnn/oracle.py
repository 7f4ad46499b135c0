"""SCNN(oracle): the upper bound on sparse speedup.

The paper derives the oracle's performance "by dividing the number of
multiplication operations required for Cartesian product-based convolution
with the number of multipliers available on-chip" — i.e. a machine with
perfect load balance, no fragmentation, and no barriers, performing exactly
the multiplies whose two operands are both non-zero.

That count is an integer identity over the operands' non-zero structure::

    products = Σ_{c,s,r} W[c,s,r] · A[c,s,r]

where ``W[c,s,r]`` is the number of non-zero weights at filter offset
``(s, r)`` of input channel ``c``, summed over the filters of ``c``'s group,
and ``A[c,s,r]`` is the number of non-zero activations of channel ``c``
inside the strided output window that offset sweeps across the zero-padded
plane.  Each window lies on one stride phase of the plane, so ``A`` is four
lookups into that phase's integral image — no convolution is evaluated.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.arch.registry import SCNN_CONFIG
from repro.arch.spec import AcceleratorConfig
from repro.dataflow.tiling import _rectangle_counts, phase_integral_images
from repro.nn.layers import ConvLayerSpec


def nonzero_multiplies(
    spec: ConvLayerSpec,
    weights: np.ndarray,
    activations: np.ndarray,
    *,
    integrals: Optional[Sequence[np.ndarray]] = None,
) -> int:
    """Exact count of multiplies with both operands non-zero.

    Border effects are accounted for: products of a filter offset with
    padding, or with activations its strided window never reaches, are not
    counted, matching what the real dataflow would skip.  Only the non-zero
    structure is read, so the operands may be bool masks; ``integrals`` are
    the activation mask's :func:`~repro.dataflow.tiling.phase_integral_images`,
    when the caller has built them already.
    """
    weights = np.asarray(weights, dtype=bool)
    num_k, c_per_group, filt_h, filt_w = weights.shape
    weight_nz = np.count_nonzero(
        weights.reshape(spec.groups, num_k // spec.groups, c_per_group, filt_h, filt_w),
        axis=1,
    ).reshape(-1, filt_h, filt_w)
    stride = spec.stride
    if integrals is None:
        integrals = phase_integral_images(activations, stride)
    # Offset s reads input rows s - padding + stride * j for j < output
    # height: a run of that many consecutive rows of the plane decimated at
    # phase (s - padding) % stride, starting at (s - padding) // stride.
    # Clipping the run to the decimated plane drops the padding rows; columns
    # work the same way.
    first_row = np.arange(filt_h) - spec.padding
    first_col = np.arange(filt_w) - spec.padding
    row_phase, col_phase = first_row % stride, first_col % stride
    total = 0
    # sorted(set(...)) rather than np.unique, which imports numpy.ma in
    # numpy 2.x: a fresh pool worker would pay that import on its first layer.
    for py in sorted(set(row_phase.tolist())):
        rows = np.flatnonzero(row_phase == py)[:, None]
        y_lo = first_row[rows] // stride
        for px in sorted(set(col_phase.tolist())):
            cols = np.flatnonzero(col_phase == px)[None, :]
            x_lo = first_col[cols] // stride
            integral = integrals[py * stride + px]
            height, width = integral.shape[1] - 1, integral.shape[2] - 1
            # Window counts per (channel, row offset, column offset), returned
            # transposed like the matching weight counts below.
            windows = _rectangle_counts(
                integral,
                np.clip(y_lo, 0, height),
                np.clip(y_lo + spec.output_height, 0, height),
                np.clip(x_lo, 0, width),
                np.clip(x_lo + spec.output_width, 0, width),
            )
            total += int((windows * weight_nz[:, rows, cols].T).sum())
    return total


def oracle_cycles(products: int, config: AcceleratorConfig = SCNN_CONFIG) -> int:
    """Cycles an oracular SCNN would need for a layer of ``products`` valid
    products (:func:`nonzero_multiplies`)."""
    return max(1, -(-products // config.total_multipliers))
