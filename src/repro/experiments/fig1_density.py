"""Figure 1: per-layer weight/activation density and achievable work reduction.

The paper instruments pruned Caffe models to measure per-layer weight and
input-activation density, and plots the ideal remaining work (product of the
two densities).  Here the densities are those of the synthetic workloads
(pruned weights, ReLU-sparse activations) generated at the calibrated
targets, read from each layer's recipe handle with nothing drawn: they
equal the counts on the drawn tensors bit for bit (``tests/test_engine.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.metrics import DensityRow, average_work_reduction, density_table
from repro.analysis.reporting import format_table
from repro.engine.workloads import network_handles
from repro.experiments.common import EVALUATED_NETWORKS, cached_network


@dataclass
class DensityReport:
    """Figure 1 data of one network."""

    network: str
    rows: List[DensityRow]
    average_work_reduction: float


def run(networks: tuple = EVALUATED_NETWORKS, *, measured: bool = True) -> Dict[str, DensityReport]:
    """Per-layer density rows for every evaluated network.

    With ``measured=True`` (default) the densities are those of the
    generated workload tensors; with ``measured=False`` the calibration
    table itself is reported.
    """
    reports: Dict[str, DensityReport] = {}
    for name in networks:
        network = cached_network(name)
        if measured:
            rows = density_table(network, network_handles(name)[1])
        else:
            rows = density_table(network)
        reports[network.name] = DensityReport(
            network=network.name,
            rows=rows,
            average_work_reduction=average_work_reduction(rows, network),
        )
    return reports


def main() -> str:
    sections = []
    for report in run().values():
        table_rows = [
            (
                row.layer,
                f"{row.weight_density:.2f}",
                f"{row.activation_density:.2f}",
                f"{row.work_fraction:.3f}",
                f"{row.work_reduction:.1f}x",
            )
            for row in report.rows
        ]
        table = format_table(
            ["Layer", "Density (W)", "Density (IA)", "Work fraction", "Work reduction"],
            table_rows,
            title=f"Figure 1: {report.network} density",
        )
        sections.append(
            table
            + f"\nNetwork average work reduction: {report.average_work_reduction:.1f}x"
        )
    output = "\n\n".join(sections)
    print(output)
    return output


if __name__ == "__main__":
    main()
