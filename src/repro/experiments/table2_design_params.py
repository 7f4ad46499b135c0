"""Table II: SCNN design parameters.

Checks that the default :data:`repro.arch.registry.SCNN_CONFIG` instance
matches the design point of the paper's Table II (per-PE parameters and
chip-level totals).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.reporting import format_table
from repro.arch.registry import SCNN_CONFIG


def run() -> Dict[str, Tuple[object, object]]:
    """Return ``parameter -> (modelled value, paper value)`` for Table II."""
    config = SCNN_CONFIG
    return {
        "Multiplier width (bits)": (config.multiplier_bits, 16),
        "Accumulator width (bits)": (config.accumulator_bits, 24),
        "IARAM/OARAM (each, KB)": (config.iaram_bytes // 1024, 10),
        "Weight FIFO (entries)": (config.weight_fifo_entries, 50),
        "Weight FIFO (bytes)": (config.weight_fifo_bytes, 500),
        "Multiply array (FxI)": (
            f"{config.multipliers_f}x{config.multipliers_i}",
            "4x4",
        ),
        "Accumulator banks": (config.accumulator_banks, 32),
        "Accumulator bank entries": (config.accumulator_bank_entries, 32),
        "# PEs": (config.num_pes, 64),
        "# Multipliers": (config.total_multipliers, 1024),
        "IARAM + OARAM data (MB)": (
            round(config.activation_sram_bytes / (1024 * 1024), 2),
            1.25,
        ),
        "IARAM + OARAM indices (MB)": (
            round(config.activation_index_bytes / (1024 * 1024), 2),
            0.2,
        ),
    }


def payload() -> Dict[str, object]:
    """Table II as a JSON-serializable payload (the service's ``table2``).

    ``rows`` maps each parameter to ``{"modelled": ..., "paper": ...}``;
    ``matches`` is true when every modelled value equals the paper's.
    """
    rows = {
        name: {"modelled": modelled, "paper": paper}
        for name, (modelled, paper) in run().items()
    }
    return {
        "config": SCNN_CONFIG.name,
        "rows": rows,
        "matches": all(cell["modelled"] == cell["paper"] for cell in rows.values()),
    }


def main() -> str:
    rows: List[Tuple[object, object, object]] = [
        (name, modelled, paper) for name, (modelled, paper) in run().items()
    ]
    table = format_table(
        ["Parameter", "Modelled", "Paper"],
        rows,
        title="Table II: SCNN design parameters",
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
