"""Section VI-D: larger networks — DRAM tiling of layers that overflow the RAMs.

SCNN holds compressed activations in its IARAM/OARAM whenever possible.  For
layers whose compressed input + output activations exceed that capacity, the
activations must be tiled through DRAM, which costs energy (the paper's
pipelining hides the latency).

Paper landmarks: 9 of the 72 evaluated layers require DRAM tiling, all in
VGGNet, with an energy penalty of 5-62% (mean ~18%) on those layers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

from repro.analysis.reporting import format_table
from repro.arch.adapters import price_energy
from repro.arch.registry import SCNN_CONFIG
from repro.experiments.common import EVALUATED_NETWORKS, cached_simulation

# Compressed storage overhead: one 4-bit index per 16-bit value plus run-length
# padding, matching the provisioning ratio of Table II.
_INDEX_OVERHEAD = 1.0 + SCNN_CONFIG.index_bits / 16.0


@dataclass
class TilingRow:
    """DRAM-tiling assessment of one layer."""

    network: str
    layer: str
    compressed_activation_bytes: int
    fits_on_chip: bool
    energy_penalty: float


def run(networks: tuple = EVALUATED_NETWORKS, seed: int = 0) -> List[TilingRow]:
    rows: List[TilingRow] = []
    capacity = SCNN_CONFIG.activation_sram_bytes
    # A configuration with effectively unlimited activation RAM gives the
    # no-spill baseline energy for the penalty computation.
    roomy_config = replace(
        SCNN_CONFIG, iaram_bytes=64 * 1024 * 1024, oaram_bytes=64 * 1024 * 1024
    )
    for name in networks:
        simulation = cached_simulation(name, seed)
        for layer in simulation.layers:
            workload = layer.workload
            spec = workload.spec
            nnz_in = int(round(spec.input_activation_count * workload.activation_density))
            nnz_out = int(round(spec.output_activation_count * layer.output_density))
            compressed_bytes = int((nnz_in + nnz_out) * 2 * _INDEX_OVERHEAD)
            fits = compressed_bytes <= capacity
            penalty = 0.0
            if not fits:
                # The layer's own SCNN energy over the same events priced on
                # a config whose activation RAM holds every layer.
                without_dram = price_energy(
                    roomy_config, layer.scnn, workload, layer.output_density
                )
                penalty = layer.energy["SCNN"].total / without_dram.total - 1.0
            rows.append(
                TilingRow(
                    network=simulation.network.name,
                    layer=spec.name,
                    compressed_activation_bytes=compressed_bytes,
                    fits_on_chip=fits,
                    energy_penalty=penalty,
                )
            )
    return rows


def summary(rows: List[TilingRow]) -> Dict[str, float]:
    spilled = [row for row in rows if not row.fits_on_chip]
    penalties = [row.energy_penalty for row in spilled]
    return {
        "evaluated_layers": float(len(rows)),
        "spilled_layers": float(len(spilled)),
        "min_penalty": min(penalties) if penalties else 0.0,
        "max_penalty": max(penalties) if penalties else 0.0,
        "mean_penalty": sum(penalties) / len(penalties) if penalties else 0.0,
    }


def main() -> str:
    rows = run()
    spilled = [row for row in rows if not row.fits_on_chip]
    table_rows = [
        (
            row.network,
            row.layer,
            f"{row.compressed_activation_bytes / (1024 * 1024):.2f}",
            f"{row.energy_penalty * 100:.0f}%",
        )
        for row in spilled
    ]
    table = format_table(
        ["Network", "Layer", "Compressed acts (MB)", "Energy penalty"],
        table_rows,
        title="Section VI-D: layers requiring DRAM tiling",
    )
    stats = summary(rows)
    extra = (
        f"\n{int(stats['spilled_layers'])} of {int(stats['evaluated_layers'])} evaluated "
        f"layers require DRAM tiling (paper: 9 of 72); penalty "
        f"{stats['min_penalty'] * 100:.0f}%-{stats['max_penalty'] * 100:.0f}% "
        f"(mean {stats['mean_penalty'] * 100:.0f}%), paper: 5-62% (mean 18%)"
    )
    output = table + extra
    print(output)
    return output


if __name__ == "__main__":
    main()
