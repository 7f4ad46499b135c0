"""Design-space exploration on top of the analytical models.

The paper motivates its design point (8x8 PEs of 4x4 multipliers, 32
accumulator banks, Kc = 8) with individual sensitivity arguments.  This
module packages that style of study into a reusable API: define a set of
candidate :class:`repro.arch.spec.AcceleratorConfig` instances, evaluate
each on a workload suite with the analytical cycle/energy/area models, and
extract the Pareto frontier over (latency, energy, area).

:func:`sweep` evaluates every candidate on every layer in one whole-grid
pass of the analytical models (:func:`repro.grid.evaluate_grid`), in the
calling process; :meth:`repro.engine.SimulationEngine.sweep` runs the same
pass behind the engine's result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.arch.registry import SCNN_CONFIG
from repro.arch.spec import AcceleratorConfig
from repro.nn.densities import network_sparsity
from repro.nn.networks import Network
from repro.timeloop.area import accelerator_area_mm2


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated accelerator configuration."""

    config: AcceleratorConfig
    cycles: float
    energy: float
    area_mm2: float

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def energy_delay_product(self) -> float:
        return self.energy * self.cycles

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance over (cycles, energy, area): no worse in all, better in one."""
        no_worse = (
            self.cycles <= other.cycles
            and self.energy <= other.energy
            and self.area_mm2 <= other.area_mm2
        )
        strictly_better = (
            self.cycles < other.cycles
            or self.energy < other.energy
            or self.area_mm2 < other.area_mm2
        )
        return no_worse and strictly_better


def sweep_densities(
    network: Network, sparsity=None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-layer ``(layers, 1)`` density grids in the sweep's convention.

    Output density is the successor layer's activation density (one layer's
    outputs are the next layer's input stream); the final layer falls back
    to the 0.55 post-ReLU average the paper quotes.
    """
    sparsity = sparsity if sparsity is not None else network_sparsity(network)
    specs = list(network.layers)
    weight = np.array(
        [[sparsity[spec.name].weight_density] for spec in specs]
    )
    activation = np.array(
        [[sparsity[spec.name].activation_density] for spec in specs]
    )
    output = np.array(
        [
            [
                sparsity[specs[index + 1].name].activation_density
                if index + 1 < len(specs)
                else 0.55
            ]
            for index in range(len(specs))
        ]
    )
    return weight, activation, output


def evaluate_configs(
    configs: Sequence[AcceleratorConfig],
    network: Network,
    *,
    sparsity=None,
) -> List[DesignPoint]:
    """Evaluate every candidate on a whole network in one grid pass.

    The whole configs x layers grid is evaluated through
    :func:`repro.grid.evaluate_grid` with the analytical SCNN model for
    every candidate, at the densities of :func:`sweep_densities`; a design
    point's cycles and energy are its layers' totals, summed in layer order.
    This is the pass :func:`sweep` runs and the one
    :meth:`repro.engine.SimulationEngine.sweep` runs on its cache misses.
    """
    from repro.grid import evaluate_grid

    configs = list(configs)
    if not configs:
        return []
    weight, activation, output = sweep_densities(network, sparsity)
    grid = evaluate_grid(
        list(network.layers),
        configs,
        weight_density=weight,
        activation_density=activation,
        output_density=output,
        model="scnn",
    )
    return [
        DesignPoint(
            config=config,
            cycles=grid.total_cycles(index),
            energy=grid.total_energy(index),
            area_mm2=accelerator_area_mm2(config),
        )
        for index, config in enumerate(configs)
    ]


def sweep(
    configs: Iterable[AcceleratorConfig], network: Network
) -> List[DesignPoint]:
    """Evaluate every candidate configuration on ``network``.

    One whole-grid pass (:func:`evaluate_configs`) at the network's
    measured densities, in the calling process.
    """
    return evaluate_configs(list(configs), network)


def pareto_frontier(points: Sequence[DesignPoint]) -> List[DesignPoint]:
    """Non-dominated subset of ``points`` (stable order)."""
    frontier = []
    for candidate in points:
        if not any(other.dominates(candidate) for other in points if other is not candidate):
            frontier.append(candidate)
    return frontier


def default_candidates(base: AcceleratorConfig = SCNN_CONFIG) -> List[AcceleratorConfig]:
    """The candidate set the paper's sensitivity studies cover.

    PE granularity at fixed 1,024 multipliers, accumulator banking, and the
    output-channel group size, each varied around the paper's design point.
    """
    candidates: List[AcceleratorConfig] = []
    for num_pes in (64, 16, 4):
        candidates.append(base.with_pe_count(num_pes))
    for banks in (16, 64):
        candidates.append(
            replace(base, name=f"{base.name}-A{banks}", accumulator_banks=banks)
        )
    for group in (4, 16):
        candidates.append(
            replace(base, name=f"{base.name}-Kc{group}", output_channel_group=group)
        )
    return candidates


def summarize(points: Sequence[DesignPoint]) -> List[Tuple[str, float, float, float]]:
    """(name, cycles, energy, area) rows, normalised to the first point."""
    if not points:
        return []
    base = points[0]
    rows = []
    for point in points:
        rows.append(
            (
                point.name,
                point.cycles / base.cycles,
                point.energy / base.energy,
                point.area_mm2 / base.area_mm2,
            )
        )
    return rows
