"""Section VI-C: PE granularity study.

At a fixed chip-wide throughput of 1,024 multipliers, sweep the number of PEs
(64 = 8x8 PEs with 4x4 multipliers each, down to 4 = 2x2 PEs with 256
multipliers each).  Fewer, larger PEs suffer less from the inter-PE barrier
but much more from intra-PE multiplier-array fragmentation.

Paper landmarks (GoogLeNet): the 64-PE configuration is ~11% faster than the
4-PE one and reaches ~59% average multiplier utilization versus ~35%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.reporting import format_table
from repro.arch.registry import SCNN_CONFIG
from repro.arch.spec import ArchitectureSpec
from repro.engine import default_engine
from repro.engine.workloads import network_handles

DEFAULT_PE_COUNTS = (64, 16, 4)


@dataclass
class GranularityPoint:
    """Results of one PE-count configuration."""

    num_pes: int
    multipliers_per_pe: int
    total_cycles: int
    average_utilization: float
    average_idle: float


def run(
    pe_counts: Sequence[int] = DEFAULT_PE_COUNTS,
    network_name: str = "googlenet",
    seed: int = 0,
) -> List[GranularityPoint]:
    """Simulate the network at each PE count, one synthesis per layer.

    SCNN's own PE count is evaluated on ``SCNN_CONFIG`` itself, so that
    column shares SCNN's cache cells (a rescaled copy would differ only in
    its name, and a cell is keyed by the whole configuration).
    """
    configs = [
        SCNN_CONFIG
        if num_pes == SCNN_CONFIG.num_pes
        else SCNN_CONFIG.with_pe_count(num_pes)
        for num_pes in pe_counts
    ]
    grid = default_engine().run_architectures(
        network_handles(network_name, seed)[1],
        [ArchitectureSpec(config) for config in configs],
    )
    points = []
    for num_pes, config in zip(pe_counts, configs):
        total_cycles = 0
        weighted_util = 0.0
        weighted_idle = 0.0
        for result in grid.column(config.name):
            total_cycles += result.cycles
            weighted_util += result.multiplier_utilization * result.cycles
            weighted_idle += result.idle_fraction * result.cycles
        points.append(
            GranularityPoint(
                num_pes=num_pes,
                multipliers_per_pe=config.multipliers_per_pe,
                total_cycles=total_cycles,
                average_utilization=weighted_util / total_cycles if total_cycles else 0.0,
                average_idle=weighted_idle / total_cycles if total_cycles else 0.0,
            )
        )
    return points


def speedup_64_vs_4(points: Sequence[GranularityPoint]) -> float:
    """Speedup of the 64-PE configuration over the 4-PE one (paper: ~1.11)."""
    by_count: Dict[int, GranularityPoint] = {point.num_pes: point for point in points}
    if 64 not in by_count or 4 not in by_count:
        raise KeyError("the sweep must include both 64 and 4 PEs")
    return by_count[4].total_cycles / by_count[64].total_cycles


def main() -> str:
    points = run()
    rows = [
        (
            f"{point.num_pes} PEs x {point.multipliers_per_pe} muls",
            point.total_cycles,
            f"{point.average_utilization:.2f}",
            f"{point.average_idle:.2f}",
        )
        for point in points
    ]
    table = format_table(
        ["Configuration", "GoogLeNet cycles", "Avg mult. util.", "Avg idle"],
        rows,
        title="Section VI-C: PE granularity (1,024 multipliers total)",
    )
    summary = f"\n64-PE speedup over 4-PE: {speedup_64_vs_4(points):.2f}x (paper ~1.11x)"
    output = table + summary
    print(output)
    return output


if __name__ == "__main__":
    main()
