"""Table IV: the DCNN / DCNN-opt / SCNN accelerator configurations.

A thin view over the architecture registry: the rows are the registry's
``table4``-tagged specs (see :func:`repro.timeloop.area.table_iv_configurations`),
so registering a new Table IV variant extends this driver without code
changes.
"""

from __future__ import annotations

from typing import List

from repro.analysis.reporting import format_table
from repro.timeloop.area import ConfigurationRow, table_iv_configurations

PAPER_TABLE_IV = {
    "DCNN": (64, 1024, 2.0, 5.9),
    "DCNN-opt": (64, 1024, 2.0, 5.9),
    "SCNN": (64, 1024, 1.0, 7.9),
}


def run() -> List[ConfigurationRow]:
    """The Table IV rows, sourced from the architecture registry."""
    return table_iv_configurations()


def main() -> str:
    """Print (and return) the Table IV comparison against the paper."""
    rows = []
    for config in run():
        paper = PAPER_TABLE_IV.get(config.name)
        paper_note = (
            f"{paper[2]:.1f} MB / {paper[3]:.1f} mm^2" if paper else "-"
        )
        rows.append(
            (
                config.name,
                config.num_pes,
                config.multipliers,
                f"{config.sram_bytes / (1024 * 1024):.2f}",
                f"{config.area_mm2:.1f}",
                paper_note,
            )
        )
    table = format_table(
        ["Config", "# PEs", "# MULs", "SRAM (MB)", "Area (mm^2)", "Paper (SRAM/area)"],
        rows,
        title="Table IV: CNN accelerator configurations",
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
