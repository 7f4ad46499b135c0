"""Ablation: multiplier-array aspect ratio (F x I).

The SCNN PE fetches F weights and I activations per step.  With 16
multipliers per PE the paper chooses 4x4; this ablation compares the
alternative aspect ratios on AlexNet workloads.  Wide weight vectors (large
F) fragment on the small Kc x R x S weight blocks of 1x1-style layers; wide
activation vectors (large I) fragment on small per-PE tiles.
"""

from dataclasses import replace

from repro.arch import SCNN_CONFIG
from repro.experiments.common import cached_simulation
from repro.scnn.cycles import simulate_layer_cycles

SHAPES = ((16, 1), (8, 2), (4, 4), (2, 8), (1, 16))


def _network_cycles(f_width: int, i_width: int) -> int:
    simulation = cached_simulation("alexnet")
    config = replace(
        SCNN_CONFIG,
        multipliers_f=f_width,
        multipliers_i=i_width,
        accumulator_banks=2 * f_width * i_width,
    )
    return sum(
        simulate_layer_cycles(
            layer.workload.spec,
            layer.workload.weights,
            layer.workload.activations,
            config,
        ).cycles
        for layer in simulation.layers
    )


def test_multiplier_shape_ablation(benchmark, alexnet_simulation):
    cycles = benchmark.pedantic(
        lambda: {shape: _network_cycles(*shape) for shape in SHAPES},
        rounds=1, iterations=1, warmup_rounds=0,
    )

    square = cycles[(4, 4)]
    # The square array is within a few percent of the best aspect ratio —
    # the balanced choice the paper makes.
    best = min(cycles.values())
    assert square <= best * 1.15
    # Extremely skewed arrays fragment badly on one operand or the other.
    assert max(cycles[(16, 1)], cycles[(1, 16)]) > square
