"""Declarative architecture descriptions.

Two dataclasses carry everything the simulators need to know about an
accelerator:

* :class:`AcceleratorConfig` — the hardware parameterization (PE geometry,
  multiplier array shape, accumulator banking, buffer sizes, dataflow).
  Architecture descriptions are owned by the architecture subsystem rather
  than by one simulator.
* :class:`ArchitectureSpec` — one *registered architecture*: a config plus
  the provenance metadata (description, paper table/figure, tags) the docs
  and the comparison sweeps surface.  The config is the architecture: its
  name is the spec's, its dataflow's inner operation picks the model
  (:func:`repro.arch.adapters.simulate_layer`), and it alone keys the
  spec's cache cells.

Both are frozen, hashable and picklable, so specs travel unchanged through
the engine's process pool and content-addressed cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.dataflow.dataflows import Dataflow
from repro.dataflow.tiling import pe_grid_for


@dataclass(frozen=True)
class AcceleratorConfig:
    """Parameters of one accelerator instance.

    The defaults of the SCNN instance follow Table II: an 8x8 array of PEs,
    each with a 4x4 multiplier array, 32 accumulator banks of 32 entries,
    10KB IARAM + 10KB OARAM, and a 50-entry weight FIFO.
    """

    name: str
    dataflow: Dataflow
    num_pes: int = 64
    multipliers_f: int = 4
    multipliers_i: int = 4
    output_channel_group: int = 8
    accumulator_banks: int = 32
    accumulator_bank_entries: int = 32
    iaram_bytes: int = 10 * 1024
    oaram_bytes: int = 10 * 1024
    weight_fifo_entries: int = 50
    weight_fifo_bytes: int = 500
    multiplier_bits: int = 16
    accumulator_bits: int = 24
    index_bits: int = 4
    clock_ghz: float = 1.0
    dense_sram_bytes: int = 0  # dense accelerators: monolithic activation SRAM
    # Fixed per-output-channel-group costs.  The paper treats the PPU drain,
    # compression and halo exchange as fully hidden behind the (double
    # buffered) compute of the next group, so both default to zero; they are
    # exposed as parameters for sensitivity studies.
    barrier_overhead_cycles: int = 0
    drain_overhead_cycles: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("an accelerator config needs a non-empty name")
        positive_fields = (
            "num_pes",
            "multipliers_f",
            "multipliers_i",
            "output_channel_group",
            "accumulator_banks",
            "accumulator_bank_entries",
        )
        for field_name in positive_fields:
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")

    # -- derived quantities -----------------------------------------------------

    @property
    def multipliers_per_pe(self) -> int:
        return self.multipliers_f * self.multipliers_i

    @property
    def total_multipliers(self) -> int:
        return self.num_pes * self.multipliers_per_pe

    @property
    def pe_grid(self) -> Tuple[int, int]:
        return pe_grid_for(self.num_pes)

    @property
    def activation_sram_bytes(self) -> int:
        """Total on-chip activation storage (both RAMs, across all PEs)."""
        if self.dense_sram_bytes:
            return self.dense_sram_bytes
        return self.num_pes * (self.iaram_bytes + self.oaram_bytes)

    @property
    def activation_index_bytes(self) -> int:
        """Index (coordinate) storage carried alongside the activation RAMs.

        The run-length encoding stores one ``index_bits``-wide zero-run count
        per stored 16-bit value, i.e. ``index_bits / 16`` of the data
        capacity — reported as 0.2MB for the ~1MB of activation data in the
        paper's Table II.
        """
        if self.dense_sram_bytes:
            return 0
        return int(self.activation_sram_bytes * self.index_bits / 16)

    @property
    def is_sparse(self) -> bool:
        return self.dataflow.is_sparse

    @property
    def peak_ops_per_cycle(self) -> int:
        """Multiply + add pairs issued per cycle at full utilization."""
        return self.total_multipliers

    def with_pe_count(self, num_pes: int) -> "AcceleratorConfig":
        """Rescale the PE count at constant total multiplier throughput.

        Used by the Section VI-C granularity study: the chip-wide multiplier
        count stays at ``total_multipliers`` while the PE count changes, so
        each PE's F x I array grows or shrinks accordingly (square-ish F x I
        split, biased towards F when the split is uneven).
        """
        total = self.total_multipliers
        if total % num_pes:
            raise ValueError(
                f"{total} multipliers cannot be split evenly across {num_pes} PEs"
            )
        per_pe = total // num_pes
        f = int(per_pe**0.5)
        while per_pe % f:
            f -= 1
        i = per_pe // f
        if f < i:
            f, i = i, f
        return replace(
            self,
            name=f"{self.name}-{num_pes}PE",
            num_pes=num_pes,
            multipliers_f=f,
            multipliers_i=i,
            accumulator_banks=2 * per_pe,
        )


@dataclass(frozen=True)
class ArchitectureSpec:
    """One registered accelerator architecture.

    A spec is purely declarative: the hardware parameterization
    (:attr:`config`) and provenance metadata, which no result depends on.
    Registering a new spec — one :func:`repro.arch.registry` entry — is all
    it takes for an architecture to show up in the comparison sweeps, the
    ``repro compare`` CLI and the service's ``compare`` scenario.
    """

    config: AcceleratorConfig
    description: str = ""
    paper_reference: str = ""
    tags: Tuple[str, ...] = field(default=())

    @property
    def name(self) -> str:
        """The architecture's name: its config's, which results carry."""
        return self.config.name
