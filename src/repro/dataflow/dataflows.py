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

All of them walk the input-stationary loop order of Section III-A, which
the cycle models build in, so a description records only what tells them
apart: the inner operation, which picks the model, and which operand zeros
are skipped (an operand is compressed exactly when its zeros are skipped),
gated or compressed on the DRAM interface.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Dataflow:
    """Static description of a CNN accelerator dataflow.

    Attributes:
        name: the paper's name for the dataflow.
        inner_operation: ``"cartesian"`` (F x I all-pairs products) or
            ``"dot"`` (F-wide dot product); it picks the model that
            evaluates the dataflow (:func:`repro.arch.adapters.simulate_layer`).
        skips_zero_weights: weights delivered compressed, so zero weights
            never occupy a multiplier.
        skips_zero_activations: activations kept compressed end to end, so
            zero activations never occupy a multiplier.
        gates_zero_operands: multiplier data-gated (energy saved, cycle not)
            when an operand is zero — the DCNN-opt optimisation.
        compresses_dram_traffic: activations compressed on the DRAM interface
            (also a DCNN-opt optimisation; SCNN gets it for free).
    """

    name: str
    inner_operation: str
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
    inner_operation="cartesian",
    skips_zero_weights=False,
    skips_zero_activations=False,
    gates_zero_operands=False,
    compresses_dram_traffic=False,
)

PT_IS_CP_SPARSE = Dataflow(
    name="PT-IS-CP-sparse",
    inner_operation="cartesian",
    skips_zero_weights=True,
    skips_zero_activations=True,
    gates_zero_operands=False,
    compresses_dram_traffic=True,
)

PT_IS_CP_SPARSE_W = Dataflow(
    name="PT-IS-CP-sparse-w",
    inner_operation="cartesian",
    skips_zero_weights=True,
    skips_zero_activations=False,
    gates_zero_operands=False,
    compresses_dram_traffic=False,
)

PT_IS_CP_SPARSE_A = Dataflow(
    name="PT-IS-CP-sparse-a",
    inner_operation="cartesian",
    skips_zero_weights=False,
    skips_zero_activations=True,
    gates_zero_operands=False,
    compresses_dram_traffic=False,
)

PT_IS_DP_DENSE = Dataflow(
    name="PT-IS-DP-dense",
    inner_operation="dot",
    skips_zero_weights=False,
    skips_zero_activations=False,
    gates_zero_operands=False,
    compresses_dram_traffic=False,
)

PT_IS_DP_DENSE_OPT = Dataflow(
    name="PT-IS-DP-dense-opt",
    inner_operation="dot",
    skips_zero_weights=False,
    skips_zero_activations=False,
    gates_zero_operands=True,
    compresses_dram_traffic=True,
)
