"""Figure 9: multiplier-array utilization and inter-PE barrier idle time.

Per layer (per inception module for GoogLeNet), report the average
multiplier-array utilization of SCNN and the fraction of cycles PEs spend
idle at the output-channel-group barrier.

This driver is a thin view over the cross-architecture comparison sweep
(:func:`repro.arch.compare.compare_network`): it selects the SCNN
utilization column of the default DCNN-baselined comparison.

Paper landmarks: utilization drops in the later, smaller layers (below 20%
for GoogLeNet's last inception modules) and the barrier idle fraction grows,
because small per-PE working sets cannot fill the 4x4 multiplier array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.reporting import format_table
from repro.arch.compare import compare_network
from repro.experiments.common import EVALUATED_NETWORKS


@dataclass
class UtilizationRow:
    """One x-axis point of Figure 9."""

    label: str
    multiplier_utilization: float
    idle_fraction: float


@dataclass
class UtilizationReport:
    network: str
    rows: List[UtilizationRow]
    average_utilization: float
    average_idle: float


def run(networks: tuple = EVALUATED_NETWORKS, seed: int = 0) -> Dict[str, UtilizationReport]:
    reports: Dict[str, UtilizationReport] = {}
    for name in networks:
        comparison = compare_network(name, seed=seed)
        rows = []
        for module in comparison.modules():
            stats = comparison.module_utilization(module, "SCNN")
            rows.append(
                UtilizationRow(
                    label=module,
                    multiplier_utilization=stats["multiplier_utilization"],
                    idle_fraction=stats["idle_fraction"],
                )
            )
        average = comparison.utilization("SCNN")
        reports[comparison.network] = UtilizationReport(
            network=comparison.network,
            rows=rows,
            average_utilization=average["multiplier_utilization"],
            average_idle=average["idle_fraction"],
        )
    return reports


def main() -> str:
    sections = []
    for report in run().values():
        table_rows = [
            (row.label, f"{row.multiplier_utilization:.2f}", f"{row.idle_fraction:.2f}")
            for row in report.rows
        ]
        table = format_table(
            ["Layer", "Multiplier util.", "PE idle fraction"],
            table_rows,
            title=f"Figure 9: {report.network} utilization",
        )
        sections.append(
            table
            + f"\nCycle-weighted average utilization: {report.average_utilization:.2f}, "
            f"idle fraction: {report.average_idle:.2f}"
        )
    output = "\n\n".join(sections)
    print(output)
    return output


if __name__ == "__main__":
    main()
