"""Synthetic weight generation and magnitude pruning.

The paper prunes its networks with Han et al.'s two-phase algorithm: weights
whose magnitude falls below a threshold are zeroed, then the network is
retrained.  The architecture only observes the *result* of that process — a
weight tensor with a given density and an unstructured non-zero pattern — so
we reproduce it by magnitude-pruning randomly initialised weights to the
calibrated per-layer density.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers import ConvLayerSpec


def generate_dense_weights(
    spec: ConvLayerSpec, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Gaussian-initialised dense weights of shape ``(K, C/groups, S, R)``.

    The scale follows the usual fan-in normalisation so forward activations
    stay in a numerically reasonable range when layers are chained.
    """
    rng = rng or np.random.default_rng()
    fan_in = spec.weight_shape[1] * spec.filter_height * spec.filter_width
    scale = 1.0 / np.sqrt(fan_in)
    return rng.normal(0.0, scale, size=spec.weight_shape)


def prune_to_density(
    weights: np.ndarray,
    density: float,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Magnitude-prune ``weights`` so the kept fraction equals ``density``.

    The smallest-magnitude weights are zeroed first, exactly like phase one of
    Han et al.'s pruning.  Ties at the threshold are broken randomly so the
    requested density is hit exactly (up to integer rounding).  ``weights``
    is left untouched: the pruned tensor is a new array.
    """
    return _prune_in_place(np.array(weights, dtype=float, order="C"), density, rng)


def kept_count(total: int, density: float) -> int:
    """How many of ``total`` weights a prune to ``density`` keeps (at least one)."""
    drop = _drop_count(total, density)
    return total if drop is None else total - drop


def _drop_count(total: int, density: float) -> Optional[int]:
    """How many of ``total`` weights a prune to ``density`` zeroes.

    ``None`` when rounding keeps every weight: the prune then draws nothing.
    A count that rounds to no weight kept is clamped to keep one only after
    that test, so a one-weight tensor at density 0.5 or below still draws
    its jitter value and zeroes nothing.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    keep = int(round(total * density))
    if keep >= total:
        return None
    return total - max(1, keep)


def _pruned_indices(
    magnitudes: np.ndarray, drop: int, rng: np.random.Generator
) -> np.ndarray:
    """Flat indices of the ``drop`` smallest ``magnitudes`` after a jitter.

    The flat ``magnitudes`` are overwritten with the pruning keys.  Random
    jitter far below the smallest magnitude gap breaks exact ties (common
    when many weights share a value) without reordering distinct
    magnitudes.  The jittered keys are then distinct, so a partition picks
    the same smallest set a full sort would, with an exact count that a
    value threshold could miss on ties.  ``random`` draws the same bits as
    ``uniform(0.0, 1.0)`` through numpy's fill kernel.
    """
    jitter = rng.random(magnitudes.size)
    jitter *= 1e-12
    magnitudes += jitter
    del jitter
    return np.argpartition(magnitudes, drop)[:drop]


def _prune_in_place(
    weights: np.ndarray, density: float, rng: Optional[np.random.Generator]
) -> np.ndarray:
    """Zero the smallest magnitudes of the C-contiguous ``weights`` in place."""
    drop = _drop_count(weights.size, density)
    if drop is None:
        return weights
    rng = rng or np.random.default_rng()
    flat = weights.reshape(-1)
    flat[_pruned_indices(np.abs(flat), drop, rng)] = 0.0
    return weights


def generate_pruned_weights(
    spec: ConvLayerSpec,
    density: float,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Convenience wrapper: dense initialisation followed by pruning."""
    rng = rng or np.random.default_rng()
    # The dense draw is ours alone, so it is pruned where it lies.
    return _prune_in_place(generate_dense_weights(spec, rng), density, rng)


def pruned_weight_mask(
    spec: ConvLayerSpec, density: float, rng: np.random.Generator
) -> np.ndarray:
    """``generate_pruned_weights(spec, density, rng) != 0`` from the same draws.

    No float weight tensor is kept beside the keys: the magnitudes of the
    dense draw become the pruning keys in place.  A weight drawn as exactly
    0.0 is off in the mask even when kept, as ``!= 0`` of the tensor reads it.
    """
    magnitudes = generate_dense_weights(spec, rng).reshape(-1)
    drop = _drop_count(magnitudes.size, density)
    np.abs(magnitudes, out=magnitudes)
    mask = magnitudes != 0
    if drop is not None:
        mask[_pruned_indices(magnitudes, drop, rng)] = False
    return mask.reshape(spec.weight_shape)
