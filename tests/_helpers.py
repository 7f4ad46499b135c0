"""Importable test helpers.

Plain functions shared between test modules live here rather than in
``conftest.py``: pytest inserts *both* ``tests/`` and ``benchmarks/`` on
``sys.path`` (rootdir-relative), so ``from conftest import ...`` resolves to
whichever conftest was imported first and is not a stable import target.
``tests/_helpers.py`` is unambiguous.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.nn.densities import LayerSparsity
from repro.nn.inference import LayerWorkload, generate_activations
from repro.nn.layers import ConvLayerSpec
from repro.nn.pruning import generate_pruned_weights

#: The bitwise golden of the analytical models (see test_analytical_golden.py).
ANALYTICAL_GOLDEN = Path(__file__).resolve().parent / "golden" / "analytical_models.json"


def make_workload(
    spec: ConvLayerSpec,
    weight_density: float = 0.4,
    activation_density: float = 0.5,
    seed: int = 0,
) -> LayerWorkload:
    """Build a deterministic workload for an arbitrary spec."""
    rng = np.random.default_rng(seed)
    weights = generate_pruned_weights(spec, weight_density, rng)
    activations = generate_activations(spec, activation_density, rng)
    return LayerWorkload(
        spec=spec,
        weights=weights,
        activations=activations,
        target=LayerSparsity(weight_density, activation_density),
    )


def random_layer_specs(rng: np.random.Generator, count: int = 6):
    """Seeded random layer shapes covering stride, groups and 1x1 degeneracies."""
    specs = [
        # Degenerate pointwise layer on a single pixel.
        ConvLayerSpec("pt1x1", 64, 32, 1, 1, 1, 1),
        # Strided grouped conv with uneven spatial extent.
        ConvLayerSpec("odd", 48, 96, 7, 5, 3, 3, stride=2, groups=2),
    ]
    for index in range(count - len(specs)):
        groups = int(rng.choice([1, 1, 2, 4]))
        in_channels = int(rng.choice([16, 32, 48])) * groups
        specs.append(
            ConvLayerSpec(
                f"rand{index}",
                in_channels,
                int(rng.choice([16, 32, 64])),
                int(rng.integers(3, 30)),
                int(rng.integers(3, 30)),
                int(rng.choice([1, 3, 5])),
                int(rng.choice([1, 3])),
                stride=int(rng.choice([1, 1, 2])),
                groups=groups,
                padding=int(rng.choice([0, 1])),
            )
        )
    return specs


def fig7_point_record(point) -> dict:
    """One Figure 7 sweep point in the analytical golden's ``repr`` form."""
    return {
        "density": repr(point.density),
        "scnn_cycles": repr(point.scnn_cycles),
        "dcnn_cycles": repr(point.dcnn_cycles),
        "energy": {name: repr(value) for name, value in point.energy.items()},
    }
