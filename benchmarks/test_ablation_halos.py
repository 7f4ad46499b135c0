"""Ablation: input halos versus output halos.

The paper resolves the cross-tile dependencies of the sliding window either
by replicating input activations (input halos) or by exchanging partial sums
at group boundaries (output halos), and states the efficiency difference is
minimal; SCNN uses output halos.  This ablation quantifies both costs on the
catalogue layers: the extra input storage/fetches input halos would need
versus the partial-sum exchange traffic output halos generate.
"""

import numpy as np

from repro.arch import SCNN_CONFIG
from repro.dataflow.tiling import plan_layer
from repro.experiments.common import cached_simulation


def _halo_costs():
    """Per-layer relative costs of the two halo strategies."""
    simulation = cached_simulation("alexnet")
    layer_names = []
    input_halo_overhead = []     # extra input activations fetched/stored
    output_halo_traffic = []     # partial sums exchanged at group boundaries
    for layer in simulation.layers:
        spec = layer.workload.spec
        plan = plan_layer(
            spec, num_pes=SCNN_CONFIG.num_pes,
            group_size=SCNN_CONFIG.output_channel_group,
        )
        halo_w, halo_h = plan.halo_width, plan.halo_height
        base_inputs = spec.input_activation_count
        layer_names.append(spec.name)
        # Input halos: each PE's tile grows by the halo margin on every side.
        grown = 0
        for tile in plan.input_tiles:
            if tile.size == 0:
                continue
            grown += (tile.width + 2 * halo_w) * (tile.height + 2 * halo_h)
        grown *= spec.in_channels // 1
        input_halo_overhead.append(grown / (base_inputs * 1.0) - 1.0)
        # Output halos: the halo fraction of each accumulator drain is
        # exchanged with neighbours, once per output-channel group.
        exchanged = (
            plan.halo_fraction()
            * plan.accumulator_entries_per_group()
            * plan.num_groups
            * plan.num_pes
        )
        output_halo_traffic.append(exchanged / spec.output_activation_count)
    return layer_names, input_halo_overhead, output_halo_traffic


def test_halo_strategy_ablation(benchmark, alexnet_simulation):
    names, input_overhead, output_traffic = benchmark.pedantic(
        _halo_costs, rounds=1, iterations=1, warmup_rounds=0
    )
    by_layer = dict(zip(names, zip(input_overhead, output_traffic)))

    # Both strategies cost something on every layer.
    assert all(value > 0.0 for value in input_overhead)
    assert all(value > 0.0 for value in output_traffic)

    # On large planes (conv1's 227x227 tiles) replicating the input halo is a
    # modest overhead — this is the regime where the paper's "the difference
    # is minimal" observation holds.
    assert by_layer["conv1"][0] < 0.5

    # Large planes also keep the output-halo exchange cheap (a small multiple
    # of the output size, paid once per output-channel group).
    assert by_layer["conv1"][1] < 3.0

    # On small planes (conv3-5's 13x13 tiles are only ~2x2 per PE) *both*
    # strategies become expensive — input replication blows the input
    # footprint up roughly (tile+halo)^2/tile^2-fold and the exchanged halo
    # partial sums dominate the owned region by a similar factor.  This is
    # the quantitative backing for the paper's observation that the two
    # approaches are close to each other in efficiency; SCNN picks output
    # halos because partial-sum exchange needs no multicast input fabric.
    assert by_layer["conv3"][0] > 2.0
    assert by_layer["conv3"][1] > 2.0
    assert max(output_traffic) < 20.0
    assert max(input_overhead) < 20.0
