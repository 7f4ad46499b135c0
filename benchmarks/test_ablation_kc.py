"""Ablation: output-channel group size Kc.

Kc controls how many output channels' partial sums live in the accumulator
buffers at once.  Larger Kc means fewer buffer drains and fewer re-reads of
the input activations (better temporal amortisation), but linearly more
accumulator storage per PE.  The paper picks Kc = 8; this ablation verifies
the performance-vs-storage tradeoff around that point.
"""

from dataclasses import replace

from repro.arch import SCNN_CONFIG
from repro.dataflow.tiling import plan_layer
from repro.experiments.common import cached_simulation
from repro.scnn.cycles import simulate_layer_cycles

KC_SWEEP = (2, 4, 8, 16, 32)


def _network_cycles(group_size: int) -> int:
    simulation = cached_simulation("alexnet")
    config = replace(SCNN_CONFIG, output_channel_group=group_size)
    return sum(
        simulate_layer_cycles(
            layer.workload.spec,
            layer.workload.weights,
            layer.workload.activations,
            config,
        ).cycles
        for layer in simulation.layers
    )


def _accumulator_entries(group_size: int) -> int:
    simulation = cached_simulation("alexnet")
    config = replace(SCNN_CONFIG, output_channel_group=group_size)
    return max(
        plan_layer(
            layer.workload.spec,
            num_pes=config.num_pes,
            group_size=group_size,
        ).accumulator_entries_per_group()
        for layer in simulation.layers
    )


def test_kc_ablation(benchmark, alexnet_simulation):
    results = benchmark.pedantic(
        lambda: {kc: (_network_cycles(kc), _accumulator_entries(kc)) for kc in KC_SWEEP},
        rounds=1, iterations=1, warmup_rounds=0,
    )

    cycles = {kc: values[0] for kc, values in results.items()}
    storage = {kc: values[1] for kc, values in results.items()}

    # Accumulator storage grows linearly with Kc.
    assert storage[32] > storage[8] > storage[2]
    # Performance varies only mildly with Kc on stride-1 layers (the weight
    # vectors stay full), so the paper's Kc=8 is within a modest factor of the
    # best point while needing 4x less accumulator storage than Kc=32.
    best = min(cycles.values())
    assert cycles[8] <= best * 1.3
    assert storage[8] * 4 == storage[32]
