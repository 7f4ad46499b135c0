"""Figure 8: per-layer and network-wide speedup of SCNN over DCNN.

For each evaluated network the cycle-level model reports, per layer (per
inception module for GoogLeNet, as in the paper) and for the whole network,
the speedup of SCNN and of the oracular SCNN over the dense DCNN baseline.

This driver is a thin view over the cross-architecture comparison sweep
(:func:`repro.arch.compare.compare_network`): it selects the SCNN and oracle
speedup columns of the default DCNN-baselined comparison, whose trio metrics
are bitwise-identical to the canonical network simulation.

Paper landmarks: network-wide speedups of 2.37x (AlexNet), 2.19x (GoogLeNet)
and 3.52x (VGGNet), 2.7x on average, with SCNN(oracle) widening the gap in
the later, smaller layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.aggregate import geometric_mean
from repro.analysis.reporting import format_table
from repro.arch.compare import NetworkComparison, compare_network
from repro.experiments.common import (
    EVALUATED_NETWORKS,
    PAPER_AVERAGE_SPEEDUP,
    PAPER_NETWORK_SPEEDUP,
)


@dataclass
class SpeedupRow:
    """One bar group of Figure 8 (a layer, a module, or the whole network)."""

    label: str
    dcnn: float
    scnn: float
    oracle: float


@dataclass
class NetworkSpeedupReport:
    """Figure 8 data of one network."""

    network: str
    rows: List[SpeedupRow]
    network_speedup: float
    oracle_speedup: float
    paper_speedup: float


def _per_module_rows(comparison: NetworkComparison) -> List[SpeedupRow]:
    rows = []
    for module in comparison.modules():
        rows.append(
            SpeedupRow(
                label=module,
                dcnn=1.0,
                scnn=comparison.module_speedup(module, "SCNN"),
                oracle=comparison.module_oracle_speedup(module),
            )
        )
    return rows


def run(
    networks: tuple = EVALUATED_NETWORKS, seed: int = 0, engine=None
) -> Dict[str, NetworkSpeedupReport]:
    """Per-layer/module and network speedups for every evaluated network.

    ``engine`` (optional :class:`repro.engine.SimulationEngine`) overrides
    the shared default — the service's ``fig8`` scenario passes its own.
    """
    reports: Dict[str, NetworkSpeedupReport] = {}
    for name in networks:
        comparison = compare_network(name, seed=seed, engine=engine)
        rows = _per_module_rows(comparison)
        rows.append(
            SpeedupRow(
                label="all",
                dcnn=1.0,
                scnn=comparison.speedup("SCNN"),
                oracle=comparison.oracle_speedup,
            )
        )
        reports[comparison.network] = NetworkSpeedupReport(
            network=comparison.network,
            rows=rows,
            network_speedup=comparison.speedup("SCNN"),
            oracle_speedup=comparison.oracle_speedup,
            paper_speedup=PAPER_NETWORK_SPEEDUP.get(comparison.network, 0.0),
        )
    return reports


def average_speedup(reports: Dict[str, NetworkSpeedupReport]) -> float:
    """Average of the network-wide speedups (paper: 2.7x)."""
    return geometric_mean([report.network_speedup for report in reports.values()])


def main() -> str:
    """Print (and return) the Figure 8 tables for every evaluated network."""
    reports = run()
    sections = []
    for report in reports.values():
        table_rows = [
            (row.label, "1.00", f"{row.scnn:.2f}", f"{row.oracle:.2f}")
            for row in report.rows
        ]
        table = format_table(
            ["Layer", "DCNN/DCNN-opt", "SCNN", "SCNN (oracle)"],
            table_rows,
            title=f"Figure 8: {report.network} speedup over DCNN",
        )
        sections.append(
            table
            + f"\nNetwork speedup: {report.network_speedup:.2f}x "
            f"(paper: {report.paper_speedup:.2f}x)"
        )
    overall = average_speedup(reports)
    sections.append(
        f"Average network speedup: {overall:.2f}x (paper: {PAPER_AVERAGE_SPEEDUP:.1f}x)"
    )
    output = "\n\n".join(sections)
    print(output)
    return output


if __name__ == "__main__":
    main()
