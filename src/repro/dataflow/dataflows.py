"""First-class descriptions of the dataflows the paper compares.

Three dataflows appear in the evaluation:

* **PT-IS-CP-dense** — the dense planar-tiled, input-stationary, Cartesian-
  product dataflow of Section III-A (the stepping stone to the sparse one).
* **PT-IS-CP-sparse** — the SCNN dataflow: same structure, but only non-zero
  weights and activations are fetched, and output coordinates come from the
  compressed-format indices (Section III-B).
* **PT-IS-DP-dense** — the dense *dot-product* variant used by the DCNN and
  DCNN-opt baselines (Section V): same tiling and input-stationarity, but the
  inner operation is a dot product over contiguous dense vectors, so zero
  operands still occupy multiplier slots.

Two single-operand ablations of the sparse dataflow round out the catalogue
(the SCNN-SparseW / SCNN-SparseA variants of the paper's evaluation): each
keeps the Cartesian-product structure but compresses — and skips zeros of —
only one operand, with the other delivered dense.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataflow.loopnest import INPUT_STATIONARY_NEST, LoopNest


@dataclass(frozen=True)
class Dataflow:
    """Static description of a CNN accelerator dataflow.

    Attributes:
        name: the paper's name for the dataflow.
        temporal_order: single-PE temporal loop nest.
        inner_operation: ``"cartesian"`` (F x I all-pairs products) or
            ``"dot"`` (F-wide dot product).
        weights_compressed: weights delivered in compressed-sparse form.
        activations_compressed: activations kept compressed end to end.
        skips_zero_weights: zero weights never occupy a multiplier.
        skips_zero_activations: zero activations never occupy a multiplier.
        gates_zero_operands: multiplier data-gated (energy saved, cycle not)
            when an operand is zero — the DCNN-opt optimisation.
        compresses_dram_traffic: activations compressed on the DRAM interface
            (also a DCNN-opt optimisation; SCNN gets it for free).
    """

    name: str
    temporal_order: LoopNest
    inner_operation: str
    weights_compressed: bool
    activations_compressed: bool
    skips_zero_weights: bool
    skips_zero_activations: bool
    gates_zero_operands: bool
    compresses_dram_traffic: bool

    def __post_init__(self) -> None:
        if self.inner_operation not in ("cartesian", "dot"):
            raise ValueError(
                f"inner_operation must be 'cartesian' or 'dot', got "
                f"{self.inner_operation!r}"
            )

    @property
    def is_sparse(self) -> bool:
        """True when the dataflow skips compute for zero operands."""
        return self.skips_zero_weights or self.skips_zero_activations


PT_IS_CP_DENSE = Dataflow(
    name="PT-IS-CP-dense",
    temporal_order=INPUT_STATIONARY_NEST,
    inner_operation="cartesian",
    weights_compressed=False,
    activations_compressed=False,
    skips_zero_weights=False,
    skips_zero_activations=False,
    gates_zero_operands=False,
    compresses_dram_traffic=False,
)

PT_IS_CP_SPARSE = Dataflow(
    name="PT-IS-CP-sparse",
    temporal_order=INPUT_STATIONARY_NEST,
    inner_operation="cartesian",
    weights_compressed=True,
    activations_compressed=True,
    skips_zero_weights=True,
    skips_zero_activations=True,
    gates_zero_operands=False,
    compresses_dram_traffic=True,
)

PT_IS_CP_SPARSE_W = Dataflow(
    name="PT-IS-CP-sparse-w",
    temporal_order=INPUT_STATIONARY_NEST,
    inner_operation="cartesian",
    weights_compressed=True,
    activations_compressed=False,
    skips_zero_weights=True,
    skips_zero_activations=False,
    gates_zero_operands=False,
    compresses_dram_traffic=False,
)

PT_IS_CP_SPARSE_A = Dataflow(
    name="PT-IS-CP-sparse-a",
    temporal_order=INPUT_STATIONARY_NEST,
    inner_operation="cartesian",
    weights_compressed=False,
    activations_compressed=True,
    skips_zero_weights=False,
    skips_zero_activations=True,
    gates_zero_operands=False,
    compresses_dram_traffic=False,
)

PT_IS_DP_DENSE = Dataflow(
    name="PT-IS-DP-dense",
    temporal_order=INPUT_STATIONARY_NEST,
    inner_operation="dot",
    weights_compressed=False,
    activations_compressed=False,
    skips_zero_weights=False,
    skips_zero_activations=False,
    gates_zero_operands=False,
    compresses_dram_traffic=False,
)

PT_IS_DP_DENSE_OPT = Dataflow(
    name="PT-IS-DP-dense-opt",
    temporal_order=INPUT_STATIONARY_NEST,
    inner_operation="dot",
    weights_compressed=False,
    activations_compressed=False,
    skips_zero_weights=False,
    skips_zero_activations=False,
    gates_zero_operands=True,
    compresses_dram_traffic=True,
)
