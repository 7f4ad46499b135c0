"""The 7-dimensional CNN loop nest (paper Figure 3) and its permutations.

A CNN layer is a loop nest over ``N, K, C, W, H, R, S``; because multiply-add
is associative every permutation computes the same result.  This module gives
that nest a first-class representation so dataflows can be described as loop
orderings, and provides a direct (slow, element-by-element) executor used to
cross-check the reference convolution and the functional simulator on tiny
shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Tuple

import numpy as np

from repro.nn.layers import ConvLayerSpec

LOOP_VARIABLES: Tuple[str, ...] = ("N", "K", "C", "W", "H", "R", "S")


@dataclass(frozen=True)
class LoopNest:
    """An ordering of the seven CNN loop variables.

    The paper writes orderings as ``N -> K -> C -> W -> H -> R -> S``; here the
    ordering is a tuple from outermost to innermost.
    """

    order: Tuple[str, ...]

    def __post_init__(self) -> None:
        if sorted(self.order) != sorted(LOOP_VARIABLES):
            raise ValueError(
                f"loop order must be a permutation of {LOOP_VARIABLES}, got "
                f"{self.order}"
            )

    @classmethod
    def from_string(cls, text: str) -> "LoopNest":
        """Parse an ``"N -> K -> C -> W -> H -> R -> S"`` style description."""
        order = tuple(part.strip().upper() for part in text.split("->"))
        return cls(order)

    def __str__(self) -> str:
        return " -> ".join(self.order)

    def position(self, variable: str) -> int:
        """Nesting depth (0 = outermost) of ``variable``."""
        return self.order.index(variable.upper())

    def is_input_stationary(self) -> bool:
        """True when every input-activation index varies outside ``K, R, S``.

        Input-stationary order (the "IS" in PT-IS-CP) holds one input
        activation at the multipliers while it meets all the weights it must
        be multiplied by, i.e. the ``K``, ``R`` and ``S`` loops are the
        innermost ones.
        """
        inner = set(self.order[-3:])
        return inner == {"K", "R", "S"}


# The nest from the paper's Figure 3.
REFERENCE_NEST = LoopNest(("N", "K", "C", "W", "H", "R", "S"))
# The single-multiplier temporal order of PT-IS-CP (Section III-A).
INPUT_STATIONARY_NEST = LoopNest(("N", "C", "W", "H", "K", "R", "S"))


def loop_bounds(spec: ConvLayerSpec) -> Dict[str, int]:
    """Loop trip counts for one layer (batch N fixed at 1, as in the paper)."""
    return {
        "N": 1,
        "K": spec.out_channels,
        "C": spec.in_channels // spec.groups,
        "W": spec.output_width,
        "H": spec.output_height,
        "R": spec.filter_width,
        "S": spec.filter_height,
    }


def execute_loop_nest(
    spec: ConvLayerSpec,
    activations: np.ndarray,
    weights: np.ndarray,
    nest: LoopNest = REFERENCE_NEST,
) -> np.ndarray:
    """Execute the convolution one multiply-accumulate at a time.

    This is the literal translation of the paper's Figure 3 (generalised to
    stride, padding and groups) and is deliberately unoptimised: it exists to
    validate the vectorised reference and the functional simulator on small
    layers, and to demonstrate that every loop permutation yields the same
    result.
    """
    activations = np.asarray(activations, dtype=float)
    weights = np.asarray(weights, dtype=float)
    bounds = loop_bounds(spec)
    output = np.zeros(spec.output_shape, dtype=float)
    k_per_group = spec.out_channels // spec.groups
    c_per_group = spec.in_channels // spec.groups

    ranges = [range(bounds[var]) for var in nest.order]
    for indices in product(*ranges):
        point = dict(zip(nest.order, indices))
        k = point["K"]
        c = point["C"]
        out_x = point["W"]
        out_y = point["H"]
        r = point["R"]
        s = point["S"]
        group = k // k_per_group
        in_x = out_x * spec.stride - spec.padding + r
        in_y = out_y * spec.stride - spec.padding + s
        if not (0 <= in_x < spec.input_width and 0 <= in_y < spec.input_height):
            continue
        in_channel = group * c_per_group + c
        output[k, out_y, out_x] += (
            activations[in_channel, in_y, in_x] * weights[k, c, s, r]
        )
    return output
