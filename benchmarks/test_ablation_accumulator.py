"""Ablation: accumulator banking (paper rule A = 2 x F x I).

The paper states that provisioning twice as many accumulator banks as
multipliers "sufficiently reduces accumulator bank contention".  This
ablation sweeps the bank count on a GoogLeNet-calibrated workload and checks
that the default provisioning is indeed on the flat part of the curve while
under-provisioned configurations pay a visible cycle penalty.
"""

from dataclasses import replace

from repro.arch import SCNN_CONFIG
from repro.scnn.cycles import simulate_layer_cycles

BANK_SWEEP = (4, 8, 16, 32, 64)


def _network_cycles(layers, banks: int) -> int:
    config = replace(SCNN_CONFIG, accumulator_banks=banks)
    return sum(
        simulate_layer_cycles(spec, weights, activations, config).cycles
        for spec, weights, activations in layers
    )


def test_accumulator_banking_ablation(benchmark, alexnet_masks):
    cycles = benchmark.pedantic(
        lambda: {banks: _network_cycles(alexnet_masks, banks) for banks in BANK_SWEEP},
        rounds=1, iterations=1, warmup_rounds=0,
    )

    # Cycle count is monotone non-increasing in the bank count.
    ordered = [cycles[banks] for banks in BANK_SWEEP]
    assert ordered == sorted(ordered, reverse=True)
    # Severely under-provisioned banking (4 banks for 16 products) costs
    # several-fold more cycles.
    assert cycles[4] > 2.0 * cycles[32]
    # The paper's design point is on the flat part of the curve: doubling the
    # banks beyond 2 x F x I buys almost nothing.
    assert cycles[32] <= cycles[16]
    assert (cycles[32] - cycles[64]) / cycles[32] < 0.02
