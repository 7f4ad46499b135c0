"""Workload construction: sparse weights and activations for every layer.

Every simulator and experiment reads a layer's workload as a
:class:`WorkloadHandle`, a recipe whose :meth:`~WorkloadHandle.masks` draw
the operands' non-zero masks (:func:`build_layer_masks`) with no float
tensor formed.  The float tensors those draws stand for come from
:func:`~repro.nn.pruning.generate_pruned_weights` and one of two ways of
obtaining activation sparsity:

* :func:`generate_activations` draws a spatially-correlated non-zero pattern
  at a calibrated density for each layer independently.  This mirrors how the
  paper drives its simulator: per-layer activation maps captured from Caffe,
  whose only architecturally relevant properties are density and spatial
  clustering.
* :func:`run_forward` chains dense convolution + ReLU (+ max pooling where the
  catalogue shapes require downsampling) so activations genuinely flow from
  one layer to the next, exercising the IARAM/OARAM swap path end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.densities import LayerSparsity
from repro.nn.layers import ConvLayerSpec
from repro.nn.networks import Network
from repro.nn.pruning import kept_count, pruned_weight_mask
from repro.nn.reference import conv2d_layer, max_pool2d, relu


def _smooth(field: np.ndarray, radius: int) -> np.ndarray:
    """Box-filter each plane of ``field`` to introduce spatial correlation.

    The result is written over ``field`` (a fresh draw the caller gives up),
    so the edge-padded copy is the only new buffer.
    """
    if radius <= 0:
        return field
    size = 2 * radius + 1
    padded = np.pad(field, ((0, 0), (radius, radius), (radius, radius)), mode="edge")
    # Separable box filter via running sums along each spatial axis.  Down
    # the rows they go one contiguous row at a time: the additions of
    # ``cumsum(axis=1)`` in the same order, without its strided walk.
    rows = padded.shape[1]
    for y in range(1, rows):
        padded[:, y] += padded[:, y - 1]
    # Window sums in place, bottom row first, so each row subtracted is still
    # a running sum and no operand overlaps its output.
    for y in range(rows - 1, size - 1, -1):
        padded[:, y] -= padded[:, y - size]
    vert = padded[:, size - 1 :, :]
    np.cumsum(vert, axis=2, out=vert)
    field[:, :, 0] = vert[:, :, size - 1]
    np.subtract(vert[:, :, size:], vert[:, :, :-size], out=field[:, :, 1:])
    field /= size * size
    return field


def _quantile_threshold(field: np.ndarray, q: float) -> float:
    """``np.quantile(field, q)`` (linear method) from two order statistics.

    numpy interpolates between the order statistics at ``floor((n-1)q)`` and
    the next one as ``a + (b-a)t``, or ``b - (b-a)(1-t)`` when ``t >= 0.5``.
    One partition at the first index gives ``a``; the smallest value above
    it is ``b``.  ``np.quantile`` partitions at four indices instead.  The
    value equals numpy's up to the sign of a zero.
    """
    values = field.ravel().copy()
    position = (values.size - 1) * q
    below = min(int(position), values.size - 1)
    values.partition(below)
    low = values[below]
    if below == values.size - 1:
        return low
    high = values[below + 1 :].min()
    fraction = position - below
    if fraction >= 0.5:
        return high - (high - low) * (1 - fraction)
    return low + (high - low) * fraction


def activation_nonzeros(spec: ConvLayerSpec, density: float) -> int:
    """Exact non-zero count of ``generate_activations(spec, density, ...)``.

    The generator fixes its count up to this number whatever the seed, so a
    layer's measured input density is known before its tensor is drawn.
    """
    return int(round(density * spec.input_activation_count))


def _activation_mask(
    spec: ConvLayerSpec,
    density: float,
    rng: np.random.Generator,
    buffer: np.ndarray,
    correlation_radius: int = 1,
) -> np.ndarray:
    """Non-zero pattern of :func:`generate_activations`, drawn after its magnitudes.

    The noise field is drawn into ``buffer`` (a float tensor of the input
    shape, overwritten), smoothed, thresholded at the density quantile and
    fixed up to exactly :func:`activation_nonzeros` positions.  Density 1.0
    draws nothing and is all True.
    """
    if density >= 1.0:
        return np.ones(spec.input_shape, dtype=bool)
    field = _smooth(rng.standard_normal(out=buffer), correlation_radius)
    mask = field > _quantile_threshold(field, 1.0 - density)
    # Quantile ties can leave the density slightly off; fix up by flipping the
    # minimum number of positions.
    want = activation_nonzeros(spec, density)
    have = np.count_nonzero(mask)
    flat_mask = mask.reshape(-1)
    if have > want:
        on_positions = np.flatnonzero(flat_mask)
        drop = rng.choice(on_positions, size=have - want, replace=False)
        flat_mask[drop] = False
    elif have < want:
        off_positions = np.flatnonzero(~flat_mask)
        add = rng.choice(off_positions, size=want - have, replace=False)
        flat_mask[add] = True
    return mask


def generate_activations(
    spec: ConvLayerSpec,
    density: float,
    rng: Optional[np.random.Generator] = None,
    *,
    correlation_radius: int = 1,
) -> np.ndarray:
    """Synthetic input activations with the requested non-zero density.

    ReLU outputs are non-negative and spatially clustered (neighbouring pixels
    of a feature map tend to fire together); the generator reproduces both
    properties by thresholding a smoothed noise field at the density quantile
    and assigning positive magnitudes to the surviving positions.  Exactly
    :func:`activation_nonzeros` positions end up non-zero.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    rng = rng or np.random.default_rng()
    shape = spec.input_shape
    # ``standard_normal`` is ``normal(0.0, 1.0)`` through numpy's fill kernel:
    # the same draws and generator state, except that ``normal`` turns a
    # ``-0.0`` into ``+0.0``.  ``abs`` and the strict ``>`` of the mask
    # cannot see the sign of a zero.
    magnitudes = rng.standard_normal(size=shape)
    np.abs(magnitudes, out=magnitudes)
    magnitudes += 1e-6
    if density < 1.0:
        magnitudes *= _activation_mask(
            spec, density, rng, np.empty(shape), correlation_radius
        )
    return magnitudes


def build_layer_masks(
    spec: ConvLayerSpec, sparsity: LayerSparsity, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """``!= 0`` of one layer's pruned weights and activations at ``sparsity``.

    The same draws in the same order as
    :func:`~repro.nn.pruning.generate_pruned_weights` followed by
    :func:`generate_activations` on ``rng``, leaving it where they would,
    but no float operand tensor is formed.  Activation magnitudes are
    positive, so only their draw matters: it lands in the buffer the noise
    field is then drawn into.
    """
    weights = pruned_weight_mask(spec, sparsity.weight_density, rng)
    buffer = rng.standard_normal(size=spec.input_shape)
    return weights, _activation_mask(spec, sparsity.activation_density, rng, buffer)


@dataclass
class WorkloadHandle:
    """One layer's workload as a recipe: the only workload type.

    A handle names the draws that make a layer's operands (network name,
    seed, layer index, spec and target densities), never the operands
    themselves, so it pickles to a few hundred bytes and keys the cache by
    recipe.  :meth:`masks` draws the operands' non-zero masks from
    ``np.random.default_rng([seed, index])``.  The densities come from the
    recipe: synthesis keeps exactly :func:`~repro.nn.pruning.kept_count`
    weights and :func:`activation_nonzeros` activations.
    """

    network_name: str
    seed: int
    index: int
    spec: ConvLayerSpec
    target: LayerSparsity
    weight_density: float = field(init=False)
    activation_density: float = field(init=False)

    def __post_init__(self) -> None:
        spec, target = self.spec, self.target
        self.weight_density = (
            kept_count(spec.weight_count, target.weight_density) / spec.weight_count
        )
        self.activation_density = (
            activation_nonzeros(spec, target.activation_density)
            / spec.input_activation_count
        )

    def masks(self) -> Tuple[np.ndarray, np.ndarray]:
        """Bool non-zero masks of the weights and the activations, drawn
        from the recipe's seeded generator (:func:`build_layer_masks`)."""
        return build_layer_masks(
            self.spec, self.target, np.random.default_rng([self.seed, self.index])
        )


@dataclass
class ForwardResult:
    """Output of a chained forward pass through consecutive layers."""

    layer_name: str
    output: np.ndarray
    output_density: float


def run_forward(
    network: Network,
    weights: Sequence[np.ndarray],
    input_activations: np.ndarray,
) -> List[ForwardResult]:
    """Chain dense convolution + ReLU through a *sequential* network.

    Max pooling is inserted automatically whenever the next layer's catalogue
    input extent is smaller than the current output extent (AlexNet and VGG
    use 3x3/2 and 2x2/2 pooling respectively; both are recovered from the
    extent ratio).  Branching networks such as GoogLeNet are not supported.
    """
    if len(weights) != len(network.layers):
        raise ValueError(
            f"{network.name} has {len(network.layers)} layers, got "
            f"{len(weights)} weight tensors"
        )
    results: List[ForwardResult] = []
    current = np.asarray(input_activations, dtype=float)
    for index, (spec, layer_weights) in enumerate(zip(network.layers, weights)):
        if current.shape != spec.input_shape:
            raise ValueError(
                f"layer {spec.name} expects input {spec.input_shape}, got "
                f"{current.shape}"
            )
        output = relu(conv2d_layer(current, layer_weights, spec))
        density = float(np.count_nonzero(output)) / output.size
        results.append(
            ForwardResult(layer_name=spec.name, output=output, output_density=density)
        )
        if index + 1 < len(network.layers):
            next_spec = network.layers[index + 1]
            current = _match_next_layer(output, spec, next_spec)
    return results


def _match_next_layer(
    output: np.ndarray, spec: ConvLayerSpec, next_spec: ConvLayerSpec
) -> np.ndarray:
    """Downsample ``output`` so it matches the next layer's catalogue extent."""
    if next_spec.in_channels != spec.out_channels:
        raise ValueError(
            f"layer {next_spec.name} expects {next_spec.in_channels} input "
            f"channels but {spec.name} produces {spec.out_channels}; "
            "run_forward only supports sequential networks"
        )
    out_extent = output.shape[1]
    target = next_spec.input_height
    if target == out_extent:
        return output
    if target > out_extent:
        raise ValueError(
            f"layer {next_spec.name} expects a larger plane ({target}) than "
            f"{spec.name} produces ({out_extent})"
        )
    # Try the two pooling shapes used by the catalogue networks.
    for window, stride in ((3, 2), (2, 2)):
        if (out_extent - window) // stride + 1 == target:
            return max_pool2d(output, window, stride)
    raise ValueError(
        f"cannot bridge extent {out_extent} -> {target} between {spec.name} "
        f"and {next_spec.name} with a standard pooling window"
    )
