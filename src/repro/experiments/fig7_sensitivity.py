"""Figure 7: sensitivity of performance and energy to weight/activation density.

Using the analytical (TimeLoop) model, GoogLeNet's weight and activation
densities are artificially swept together from 1.0 down to 0.1 and the
network-wide latency (7a) and energy (7b) of SCNN, DCNN and DCNN-opt are
reported relative to DCNN.

Paper landmarks this experiment must reproduce:

* at 100% density SCNN reaches only ~79% of DCNN's performance,
* SCNN overtakes DCNN in performance below ~85% density and reaches ~24x at
  10% density,
* DCNN-opt uses no more energy than DCNN at any density,
* SCNN becomes more energy-efficient than DCNN near ~83% density and than
  DCNN-opt near ~60% density.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.reporting import format_table
from repro.arch.registry import DCNN_CONFIG, DCNN_OPT_CONFIG, SCNN_CONFIG
from repro.experiments.common import cached_network

DEFAULT_DENSITIES: Tuple[float, ...] = (
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
)


@dataclass
class SweepPoint:
    """One x-axis point of Figure 7 (weights and activations at ``density``)."""

    density: float
    scnn_cycles: float
    dcnn_cycles: float
    energy: Dict[str, float]

    @property
    def latency_ratio(self) -> float:
        """SCNN latency relative to DCNN (Figure 7a; < 1 means SCNN is faster)."""
        return self.scnn_cycles / self.dcnn_cycles

    @property
    def scnn_speedup(self) -> float:
        return self.dcnn_cycles / self.scnn_cycles

    def energy_ratio(self, which: str) -> float:
        """Energy of ``which`` relative to DCNN (Figure 7b)."""
        return self.energy[which] / self.energy["DCNN"]


def run(
    densities: Sequence[float] = DEFAULT_DENSITIES,
    network_name: str = "googlenet",
) -> List[SweepPoint]:
    """Run the density sweep with the analytical model.

    The whole layers x densities grid is one pass through :mod:`repro.grid`.
    """
    return _run_batched(densities, network_name)


def _run_batched(
    densities: Sequence[float], network_name: str
) -> List[SweepPoint]:
    """One grid pass over the whole layers x densities sweep, then its totals.

    :func:`~repro.grid.evaluate_grid` evaluates the trio with the Figure 7
    convention: SCNN on its cycle model, the dense configs on the dense
    baseline's (DCNN-opt's optimisations do not change the cycle count),
    and output activations at the input density (they feed the next swept
    layer).  Per-point totals accumulate in layer order.
    """
    from repro.grid import evaluate_grid

    specs = cached_network(network_name).layers
    grid = evaluate_grid(
        specs,
        (SCNN_CONFIG, DCNN_CONFIG, DCNN_OPT_CONFIG),
        weight_density=densities,
        activation_density=densities,
    )
    return [
        SweepPoint(
            density=density,
            scnn_cycles=grid.total_cycles(SCNN_CONFIG.name, point),
            dcnn_cycles=grid.total_cycles(DCNN_CONFIG.name, point),
            energy={
                config.name: grid.total_energy(config.name, point)
                for config in grid.configs
            },
        )
        for point, density in enumerate(densities)
    ]


def _interpolated_crossover(
    points: Sequence[SweepPoint], ratio_of_point
) -> float:
    """Density at which a monotone ratio curve crosses 1.0 (linear interp)."""
    ordered = sorted(points, key=lambda p: p.density)
    previous = None
    crossover = 0.0
    for point in ordered:
        ratio = ratio_of_point(point)
        if ratio <= 1.0:
            crossover = point.density
        elif previous is not None and ratio_of_point(previous) <= 1.0:
            low_d, low_r = previous.density, ratio_of_point(previous)
            span = ratio - low_r
            if span > 0:
                crossover = low_d + (point.density - low_d) * (1.0 - low_r) / span
            break
        previous = point
    return crossover


def performance_crossover(points: Sequence[SweepPoint]) -> float:
    """Density at which SCNN's latency equals DCNN's (paper: ~0.85)."""
    return _interpolated_crossover(points, lambda p: p.latency_ratio)


def energy_crossover(points: Sequence[SweepPoint], baseline: str) -> float:
    """Density at which SCNN's energy equals ``baseline``'s."""
    return _interpolated_crossover(
        points, lambda p: p.energy["SCNN"] / p.energy[baseline]
    )


def main() -> str:
    points = run()
    rows = []
    for point in points:
        rows.append(
            (
                f"{point.density:.1f}/{point.density:.1f}",
                f"{point.latency_ratio:.2f}",
                f"{point.scnn_speedup:.1f}x",
                "1.00",
                f"{point.energy_ratio('DCNN-opt'):.2f}",
                f"{point.energy_ratio('SCNN'):.2f}",
            )
        )
    table = format_table(
        [
            "W/A density",
            "SCNN latency (vs DCNN)",
            "SCNN speedup",
            "E DCNN",
            "E DCNN-opt",
            "E SCNN",
        ],
        rows,
        title="Figure 7: GoogLeNet performance and energy vs density",
    )
    summary = (
        f"\nPerformance crossover (paper ~0.85): {performance_crossover(points):.2f}"
        f"\nEnergy crossover vs DCNN (paper ~0.83): {energy_crossover(points, 'DCNN'):.2f}"
        f"\nEnergy crossover vs DCNN-opt (paper ~0.60): {energy_crossover(points, 'DCNN-opt'):.2f}"
    )
    output = table + summary
    print(output)
    return output


if __name__ == "__main__":
    main()
