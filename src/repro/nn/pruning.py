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


def _prune_in_place(
    weights: np.ndarray, density: float, rng: Optional[np.random.Generator]
) -> np.ndarray:
    """Zero the smallest magnitudes of the C-contiguous ``weights`` in place."""
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    total = weights.size
    keep = int(round(total * density))
    if keep >= total:
        return weights
    if keep <= 0:
        keep = 1

    rng = rng or np.random.default_rng()
    # Random jitter far below the smallest magnitude gap breaks exact ties
    # (common when many weights share a value) without reordering distinct
    # magnitudes.  The jittered keys are then distinct, so a partition picks
    # the same smallest set a full sort would, with an exact count that a
    # value threshold could miss on ties.  ``random`` draws the same bits as
    # ``uniform(0.0, 1.0)`` through numpy's fill kernel.
    keys = rng.random(total)
    keys *= 1e-12
    keys += np.abs(weights).reshape(-1)
    drop = np.argpartition(keys, total - keep)[: total - keep]
    weights.reshape(-1)[drop] = 0.0
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
