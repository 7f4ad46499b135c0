"""Network-level metrics: Table I characteristics and Figure 1 density rows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.nn.inference import WorkloadHandle
from repro.nn.networks import Network


@dataclass(frozen=True)
class NetworkCharacteristics:
    """One row of the paper's Table I."""

    name: str
    conv_layers: int
    max_layer_weight_mb: float
    max_layer_activation_mb: float
    total_multiplies_billions: float


def network_characteristics(network: Network) -> NetworkCharacteristics:
    """Compute the Table I row of one catalogue network."""
    mb = 1024.0 * 1024.0
    return NetworkCharacteristics(
        name=network.name,
        conv_layers=network.conv_layer_count,
        max_layer_weight_mb=network.max_layer_weight_bytes / mb,
        max_layer_activation_mb=network.max_layer_activation_bytes / mb,
        total_multiplies_billions=network.total_multiplies / 1e9,
    )


@dataclass(frozen=True)
class DensityRow:
    """One bar group of the paper's Figure 1."""

    layer: str
    module: str
    weight_density: float
    activation_density: float
    work_fraction: float

    @property
    def work_reduction(self) -> float:
        if self.work_fraction <= 0:
            return float("inf")
        return 1.0 / self.work_fraction


def density_table(workloads: Sequence[WorkloadHandle]) -> List[DensityRow]:
    """Per-layer density rows (Figure 1): each handle's measured densities."""
    rows: List[DensityRow] = []
    for workload in workloads:
        wd = workload.weight_density
        ad = workload.activation_density
        rows.append(
            DensityRow(
                layer=workload.spec.name,
                module=workload.spec.module or workload.spec.name,
                weight_density=wd,
                activation_density=ad,
                work_fraction=wd * ad,
            )
        )
    return rows


def average_work_reduction(rows: Sequence[DensityRow], network: Network) -> float:
    """Multiply-weighted average work reduction across a network's layers."""
    weights = []
    reductions = []
    for row in rows:
        spec = network.layer(row.layer)
        weights.append(spec.multiplies)
        reductions.append(row.work_fraction)
    weights_arr = np.asarray(weights, dtype=float)
    fractions = np.asarray(reductions, dtype=float)
    if weights_arr.sum() == 0:
        return 1.0
    overall_fraction = float((weights_arr * fractions).sum() / weights_arr.sum())
    if overall_fraction <= 0:
        return float("inf")
    return 1.0 / overall_fraction
