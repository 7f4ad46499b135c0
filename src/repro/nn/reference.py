"""Dense reference implementations of the CNN layer operators.

These are the ground truth the functional SCNN simulator is validated
against: a straightforward (vectorised) convolution, ReLU and max pooling.
They intentionally favour clarity over speed — the simulation models never
call them (the oracle counts non-zero products without convolving).
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import ConvLayerSpec


def relu(activations: np.ndarray) -> np.ndarray:
    """Rectified linear unit: clamp negative values to zero."""
    return np.maximum(activations, 0.0)


def conv2d_dense(
    activations: np.ndarray,
    weights: np.ndarray,
    *,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> np.ndarray:
    """Dense 2-D convolution (cross-correlation, as in CNN frameworks).

    Args:
        activations: input of shape ``(C, H, W)``.
        weights: filters of shape ``(K, C/groups, S, R)``.
        stride: spatial stride.
        padding: zero padding applied to each border.
        groups: channel groups; output channel ``k`` reads input channels
            ``[g*C/groups, (g+1)*C/groups)`` where ``g = k // (K/groups)``.

    Returns:
        Output of shape ``(K, H_out, W_out)``.
    """
    activations = np.asarray(activations, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if activations.ndim != 3:
        raise ValueError(f"expected (C, H, W) activations, got {activations.shape}")
    if weights.ndim != 4:
        raise ValueError(f"expected (K, C', S, R) weights, got {weights.shape}")

    num_c, height, width = activations.shape
    num_k, c_per_group, filt_h, filt_w = weights.shape
    if num_c % groups or num_k % groups:
        raise ValueError("channel counts not divisible by groups")
    if c_per_group != num_c // groups:
        raise ValueError(
            f"weights expect {c_per_group} channels per group, input provides "
            f"{num_c // groups}"
        )

    if padding:
        activations = np.pad(
            activations, ((0, 0), (padding, padding), (padding, padding))
        )
    padded_h, padded_w = activations.shape[1:]
    out_h = (padded_h - filt_h) // stride + 1
    out_w = (padded_w - filt_w) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("convolution produces an empty output plane")

    k_per_group = num_k // groups
    output = np.zeros((num_k, out_h, out_w), dtype=float)
    for g in range(groups):
        act_g = activations[g * c_per_group : (g + 1) * c_per_group]
        wt_g = weights[g * k_per_group : (g + 1) * k_per_group]
        # Accumulate one filter offset at a time: for each (r, s) the needed
        # input window is a strided slice, which keeps the loop at R*S
        # iterations instead of H*W.
        for r in range(filt_h):
            for s in range(filt_w):
                window = act_g[
                    :, r : r + out_h * stride : stride, s : s + out_w * stride : stride
                ]
                # (K', C') x (C', H_out, W_out) -> (K', H_out, W_out)
                output[g * k_per_group : (g + 1) * k_per_group] += np.tensordot(
                    wt_g[:, :, r, s], window, axes=([1], [0])
                )
    return output


def conv2d_layer(activations: np.ndarray, weights: np.ndarray, spec: ConvLayerSpec) -> np.ndarray:
    """Dense convolution using the stride/padding/groups from ``spec``."""
    return conv2d_dense(
        activations,
        weights,
        stride=spec.stride,
        padding=spec.padding,
        groups=spec.groups,
    )


def max_pool2d(activations: np.ndarray, window: int, stride: int) -> np.ndarray:
    """Max pooling over non-overlapping-or-strided square windows.

    Incomplete border windows are dropped (Caffe's "valid" behaviour is close
    enough for the synthetic end-to-end example networks).
    """
    activations = np.asarray(activations, dtype=float)
    num_c, height, width = activations.shape
    out_h = (height - window) // stride + 1
    out_w = (width - window) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("pooling produces an empty output plane")
    output = np.full((num_c, out_h, out_w), -np.inf)
    for r in range(window):
        for s in range(window):
            patch = activations[
                :, r : r + out_h * stride : stride, s : s + out_w * stride : stride
            ]
            np.maximum(output, patch, out=output)
    return output
