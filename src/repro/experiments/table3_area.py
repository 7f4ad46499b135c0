"""Table III: SCNN PE area breakdown and accelerator total."""

from __future__ import annotations

from typing import Dict

from repro.analysis.reporting import format_table
from repro.arch.registry import SCNN_CONFIG
from repro.timeloop.area import (
    PE_AREA_BREAKDOWN,
    accelerator_area_mm2,
    pe_area_breakdown,
    pe_area_mm2,
)

PAPER_PE_TOTAL_MM2 = 0.123
PAPER_ACCELERATOR_MM2 = 7.9


def run() -> Dict[str, float]:
    """Modelled per-structure PE areas plus PE and accelerator totals."""
    breakdown = dict(pe_area_breakdown(SCNN_CONFIG))
    breakdown["PE total"] = pe_area_mm2(SCNN_CONFIG)
    breakdown["Accelerator total (64 PEs)"] = accelerator_area_mm2(SCNN_CONFIG)
    return breakdown


def main() -> str:
    modelled = run()
    rows = []
    for component, paper_value in PE_AREA_BREAKDOWN.items():
        rows.append((component, f"{modelled[component]:.3f}", f"{paper_value:.3f}"))
    rows.append(("PE total", f"{modelled['PE total']:.3f}", f"{PAPER_PE_TOTAL_MM2:.3f}"))
    rows.append(
        (
            "Accelerator total (64 PEs)",
            f"{modelled['Accelerator total (64 PEs)']:.1f}",
            f"{PAPER_ACCELERATOR_MM2:.1f}",
        )
    )
    table = format_table(
        ["PE component", "Modelled (mm^2)", "Paper (mm^2)"],
        rows,
        title="Table III: SCNN PE area breakdown",
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
