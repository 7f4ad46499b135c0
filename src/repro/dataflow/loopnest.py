"""The 7-dimensional CNN loop nest (paper Figure 3) and its permutations.

A CNN layer is a loop nest over ``N, K, C, W, H, R, S``; because multiply-add
is associative every permutation computes the same result.  A dataflow names
its single-PE temporal order as one such permutation
(:attr:`repro.dataflow.dataflows.Dataflow.temporal_order`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

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


# The single-multiplier temporal order of PT-IS-CP (Section III-A).
INPUT_STATIONARY_NEST = LoopNest(("N", "C", "W", "H", "K", "R", "S"))
