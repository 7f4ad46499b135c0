"""Bitwise golden of the analytical models: SCNN cycles, dense cycles, energy.

The fixture pins, compared by ``repr``:

* every :class:`~repro.timeloop.model.AnalyticalLayerEstimate` field and
  every energy component of each registered architecture on each layer of
  each registered workload, across a density ladder (:data:`LADDER`) —
  under the SCNN model for every architecture (the DSE convention) and
  under the dense model for the dense-dataflow ones.  Each workload x
  architecture x model is one SHA-256, with readable per-network totals;
* the GoogLeNet Figure 7 points at ``DEFAULT_DENSITIES``;
* the design points of ``[SCNN] + default_candidates()`` on every
  registered workload;
* the values ``tests/test_grid_equivalence.py`` checks, over its seeded
  shapes.

The per-layer values are checked through both the one-layer entry points
(``estimate_scnn_layer`` / ``estimate_dense_layer`` /
``layer_energy_from_densities``) and the whole-grid evaluator.

Regenerate the fixture only when a model change is meant to move results::

    PYTHONPATH=src python tests/test_analytical_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest

from _helpers import ANALYTICAL_GOLDEN, fig7_point_record, random_layer_specs
from repro.arch.registry import default_registry, resolve_config
from repro.engine import SimulationEngine
from repro.experiments import fig7_sensitivity
from repro.grid import evaluate_grid
from repro.timeloop.dse import default_candidates
from repro.timeloop.energy import layer_energy_from_densities
from repro.timeloop.model import estimate_dense_layer, estimate_scnn_layer
from repro.workloads.registry import available_workloads, resolve_network

#: (weight, activation, output) density triples: unequal operands, the
#: near-zero densities that floor at one milli, and fully dense.
LADDER: Tuple[Tuple[float, float, float], ...] = (
    (1e-4, 1e-4, 1e-4),
    (0.0004, 0.0004, 0.0004),
    (1e-4, 1.0, 0.55),
    (0.05, 0.2, 0.35),
    (0.35, 0.62, 0.48),
    (0.7, 0.45, 0.9),
    (1.0, 0.0004, 0.3),
    (1.0, 1.0, 1.0),
)


@lru_cache(maxsize=None)
def _golden() -> Dict:
    return json.loads(ANALYTICAL_GOLDEN.read_text())


def _models(arch: str) -> Tuple[str, ...]:
    return ("scnn",) if resolve_config(arch).is_sparse else ("scnn", "dense")


def _cell(estimate, breakdown) -> str:
    return f"{estimate!r} {breakdown.components!r} {breakdown.total!r}"


def _digest(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def scalar_cells(workload: str, arch: str, model: str) -> List[List[str]]:
    """``cells[s][p]`` of one workload x architecture x model, one layer at a time."""
    config = resolve_config(arch)
    cells = []
    for spec in resolve_network(workload).layers:
        row = []
        for wd, ad, od in LADDER:
            if model == "scnn":
                estimate = estimate_scnn_layer(
                    spec, weight_density=wd, activation_density=ad, config=config
                )
            else:
                estimate = estimate_dense_layer(spec, config)
            breakdown = layer_energy_from_densities(
                spec,
                config,
                weight_density=wd,
                activation_density=ad,
                output_density=od,
                cycles=int(estimate.cycles),
            )
            row.append(_cell(estimate, breakdown))
        cells.append(row)
    return cells


def grid_result(workload: str, model: str, archs: Sequence[str]):
    """``archs`` (those ``model`` covers) on ``workload`` across the ladder, one pass."""
    specs = resolve_network(workload).layers
    archs = [arch for arch in archs if model in _models(arch)]
    ladder = np.array(LADDER)
    shape = (len(specs), len(LADDER))
    return evaluate_grid(
        specs,
        archs,
        weight_density=np.broadcast_to(ladder[:, 0], shape),
        activation_density=np.broadcast_to(ladder[:, 1], shape),
        output_density=np.broadcast_to(ladder[:, 2], shape),
        model=model,
    )


def grid_cells(grid, arch: str) -> List[List[str]]:
    """``cells[s][p]`` of one architecture read out of a :func:`grid_result`."""
    return [
        [
            _cell(grid.estimate(arch, s, p), grid.energy_breakdown(arch, s, p))
            for p in range(len(LADDER))
        ]
        for s in range(len(grid.specs))
    ]


def network_totals(grid, arch: str) -> Dict[str, List[str]]:
    """Network cycles and energy of one architecture at every ladder point."""
    return {
        "cycles": [repr(grid.total_cycles(arch, p)) for p in range(len(LADDER))],
        "energy": [repr(grid.total_energy(arch, p)) for p in range(len(LADDER))],
    }


def layer_records(workload: str, archs: Sequence[str]) -> Dict[str, Dict]:
    """``{arch: {model: {"sha256", "totals"}}}`` of one workload (grid path)."""
    records: Dict[str, Dict] = {}
    for model in ("scnn", "dense"):
        grid = grid_result(workload, model, archs)
        for config in grid.configs:
            records.setdefault(config.name, {})[model] = {
                "sha256": _digest([cell for row in grid_cells(grid, config.name) for cell in row]),
                "totals": network_totals(grid, config.name),
            }
    return records


def fig7_records() -> List[Dict]:
    """GoogLeNet Figure 7 points at the default density axis."""
    return [
        fig7_point_record(point)
        for point in fig7_sensitivity.run(fig7_sensitivity.DEFAULT_DENSITIES, "googlenet")
    ]


def design_point_records(workload: str) -> List[List[str]]:
    """``[name, cycles, energy, area]`` of ``[SCNN] + default_candidates()``."""
    scnn = resolve_config("SCNN")
    points = SimulationEngine(cache_dir=False).sweep(
        [scnn, *default_candidates(scnn)], workload
    )
    return [
        [point.name, repr(point.cycles), repr(point.energy), repr(point.area_mm2)]
        for point in points
    ]


def _estimate_fields(estimate) -> List[str]:
    return [
        repr(estimate.cycles),
        repr(estimate.products),
        repr(estimate.multiplier_utilization),
        repr(estimate.idle_fraction),
    ]


def grid_equivalence_values(archs: Sequence[str]) -> Dict:
    """The values ``tests/test_grid_equivalence.py`` checks, one layer at a time."""
    from test_grid_equivalence import (
        ENERGY_DENSITIES,
        EVALUATE_DENSITIES,
        EVALUATE_WEIGHT_DENSITY,
        FORCED_DENSITIES,
        SCNN_DENSITIES,
        _expected_vector_count,
        energy_cycles,
        vector_count_triples,
    )

    values: Dict = {
        "expected_vector_counts": [
            repr(_expected_vector_count(int(e), int(m), int(w)))
            for e, m, w in zip(*vector_count_triples())
        ],
        "expected_vector_count_128_1000_4": repr(_expected_vector_count(128, 1000, 4)),
    }
    wd, ad = SCNN_DENSITIES
    specs = random_layer_specs(np.random.default_rng(11))
    values["scnn_cycle_grid"] = {
        name: [
            [
                _estimate_fields(
                    estimate_scnn_layer(
                        spec,
                        weight_density=w,
                        activation_density=a,
                        config=resolve_config(name),
                    )
                )
                for w, a in zip(wd, ad)
            ]
            for spec in specs
        ]
        for name in ("SCNN", "SCNN-16PE", "SCNN-SparseW")
    }
    specs = random_layer_specs(np.random.default_rng(13))
    values["dense_cycle_grid"] = {
        name: [_estimate_fields(estimate_dense_layer(spec, name)) for spec in specs]
        for name in ("DCNN", "DCNN-opt")
    }
    specs, cycles = energy_cycles()
    wd, ad, od = ENERGY_DENSITIES
    energy = {}
    for name in archs:
        rows = []
        for s, spec in enumerate(specs):
            row = []
            for d in range(len(wd)):
                breakdown = layer_energy_from_densities(
                    spec,
                    resolve_config(name),
                    weight_density=wd[d],
                    activation_density=ad[d],
                    output_density=od[d],
                    cycles=int(cycles[s, d]),
                )
                row.append(
                    {key: repr(value) for key, value in breakdown.components.items()}
                    | {"total": repr(breakdown.total)}
                )
            rows.append(row)
        energy[name] = rows
    values["energy_grid"] = energy
    specs = random_layer_specs(np.random.default_rng(19), count=5)
    evaluate = {}
    for name in ("SCNN", "DCNN", "DCNN-opt"):
        config = resolve_config(name)
        rows = []
        for spec in specs:
            row = []
            for density in EVALUATE_DENSITIES:
                if config.is_sparse:
                    estimate = estimate_scnn_layer(
                        spec,
                        weight_density=EVALUATE_WEIGHT_DENSITY,
                        activation_density=density,
                        config=config,
                    )
                else:
                    estimate = estimate_dense_layer(spec, config)
                total = layer_energy_from_densities(
                    spec,
                    config,
                    weight_density=EVALUATE_WEIGHT_DENSITY,
                    activation_density=density,
                    output_density=density,
                    cycles=int(estimate.cycles),
                ).total
                row.append({"estimate": repr(estimate), "energy": repr(total)})
            rows.append(row)
        evaluate[name] = rows
    values["evaluate_grid"] = evaluate
    wd, ad = FORCED_DENSITIES
    values["forced_scnn_model"] = [
        repr(estimate_scnn_layer(spec, weight_density=wd, activation_density=ad, config="DCNN"))
        for spec in random_layer_specs(np.random.default_rng(23), count=3)
    ]
    return values


def _golden_archs() -> List[str]:
    """The architectures the fixture pins (examples may register more)."""
    return sorted(_golden()["grid_equivalence"]["energy_grid"])


@pytest.mark.parametrize("workload", available_workloads())
def test_grid_path_matches_golden(workload):
    assert layer_records(workload, _golden_archs()) == _golden()["layers"][workload]


@pytest.mark.parametrize("workload", available_workloads())
def test_one_layer_entry_points_match_golden(workload):
    golden = _golden()["layers"][workload]
    for arch, models in golden.items():
        for model, record in models.items():
            cells = scalar_cells(workload, arch, model)
            assert _digest([cell for row in cells for cell in row]) == record["sha256"], (
                f"{workload} / {arch} / {model}"
            )


def test_fig7_googlenet_points_match_golden():
    assert fig7_records() == _golden()["fig7_googlenet"]


@pytest.mark.parametrize("workload", available_workloads())
def test_design_points_match_golden(workload):
    assert design_point_records(workload) == _golden()["design_points"][workload]


def test_grid_equivalence_values_match_golden():
    assert grid_equivalence_values(_golden_archs()) == _golden()["grid_equivalence"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_analytical_golden.py --write")
    workloads = available_workloads()
    archs = default_registry().names()
    document = {
        "ladder": [list(point) for point in LADDER],
        "layers": {name: layer_records(name, archs) for name in workloads},
        "fig7_googlenet": fig7_records(),
        "design_points": {name: design_point_records(name) for name in workloads},
        "grid_equivalence": grid_equivalence_values(archs),
    }
    for name in workloads:
        for arch, models in document["layers"][name].items():
            for model, record in models.items():
                cells = scalar_cells(name, arch, model)
                if _digest([c for row in cells for c in row]) != record["sha256"]:
                    sys.exit(f"grid and one-layer paths disagree: {name} / {arch} / {model}")
    ANALYTICAL_GOLDEN.parent.mkdir(exist_ok=True)
    ANALYTICAL_GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
