"""Tests for the vectorised cycle-level model (repro.scnn.cycles).

The strongest check is agreement with the element-exact functional simulator:
both walk the same Cartesian-product issue steps, so on any layer the two
must report the same busy-cycle and total-cycle counts.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.arch import SCNN_CONFIG
from repro.nn.inference import generate_activations
from repro.nn.layers import ConvLayerSpec
from repro.nn.pruning import generate_pruned_weights
from repro.scnn.cycles import simulate_layer_cycles
from repro.scnn.functional import run_functional_layer

from _helpers import make_workload


def cycle_and_functional(spec, wd=0.4, ad=0.5, seed=0, config=SCNN_CONFIG):
    weights, activations = make_workload(spec, wd, ad, seed)
    fast = simulate_layer_cycles(spec, weights, activations, config)
    exact = run_functional_layer(spec, weights, activations, config)
    return fast, exact


class TestAgreementWithFunctionalSimulator:
    def test_same_padded_3x3(self, small_spec):
        fast, exact = cycle_and_functional(small_spec)
        assert fast.cycles == exact.cycles
        assert fast.busy_cycles == int(exact.busy_cycles.sum())

    def test_strided_layer(self, strided_spec):
        fast, exact = cycle_and_functional(strided_spec, 0.6, 0.8)
        assert fast.cycles == exact.cycles

    def test_grouped_layer(self, grouped_spec):
        fast, exact = cycle_and_functional(grouped_spec, 0.45, 0.5)
        assert fast.cycles == exact.cycles

    def test_pointwise_layer(self, pointwise_spec):
        fast, exact = cycle_and_functional(pointwise_spec, 0.3, 0.35)
        assert fast.cycles == exact.cycles

    def test_dense_operands(self, small_spec):
        fast, exact = cycle_and_functional(small_spec, 1.0, 1.0)
        assert fast.cycles == exact.cycles

    @pytest.mark.parametrize("num_pes", [4, 16])
    def test_other_pe_counts(self, small_spec, num_pes):
        config = SCNN_CONFIG.with_pe_count(num_pes)
        fast, exact = cycle_and_functional(small_spec, config=config)
        assert fast.cycles == exact.cycles

    def test_utilization_close_to_functional(self, small_spec):
        fast, exact = cycle_and_functional(small_spec)
        # The fast model counts boundary products the functional simulator
        # skips, so utilization agrees only approximately.
        assert fast.busy_utilization == pytest.approx(
            exact.multiplier_utilization, abs=0.1
        )


class TestCycleModelBehaviour:
    def test_sparser_operands_run_faster(self, small_spec):
        dense = cycle_and_functional(small_spec, 1.0, 1.0)[0]
        sparse = cycle_and_functional(small_spec, 0.2, 0.2)[0]
        assert sparse.cycles < dense.cycles
        assert sparse.products < dense.products

    def test_products_track_density(self, small_spec):
        result = simulate_layer_cycles(small_spec, *make_workload(small_spec, 0.5, 0.5))
        # The Cartesian product only pairs non-zeros: products scale with the
        # product of densities (within fragmentation/boundary slack).
        expected = small_spec.multiplies * 0.25
        assert result.products == pytest.approx(expected, rel=0.2)

    def test_cycles_at_least_products_over_peak(self, small_spec, small_workload):
        result = simulate_layer_cycles(small_spec, *small_workload)
        lower_bound = result.products / SCNN_CONFIG.total_multipliers
        assert result.cycles >= lower_bound

    def test_idle_fraction_bounds(self, pointwise_spec, pointwise_workload):
        result = simulate_layer_cycles(pointwise_spec, *pointwise_workload)
        assert 0.0 <= result.idle_fraction < 1.0

    def test_small_plane_has_low_utilization(self):
        """7x7 planes cannot fill an 8x8 PE array — the paper's late-layer effect."""
        small_plane = ConvLayerSpec("late", 64, 32, 7, 7, 1, 1)
        big_plane = ConvLayerSpec("early", 64, 32, 28, 28, 1, 1)
        small_result = cycle_and_functional(small_plane, 0.35, 0.35, seed=3)[0]
        rng = np.random.default_rng(3)
        weights = generate_pruned_weights(big_plane, 0.35, rng)
        acts = generate_activations(big_plane, 0.35, rng)
        big_result = simulate_layer_cycles(big_plane, weights, acts)
        assert small_result.multiplier_utilization < big_result.multiplier_utilization

    def test_fewer_accumulator_banks_add_stalls(self, small_spec, small_workload):
        default = simulate_layer_cycles(small_spec, *small_workload)
        starved = simulate_layer_cycles(
            small_spec, *small_workload, replace(SCNN_CONFIG, accumulator_banks=4)
        )
        assert starved.cycles > default.cycles
        assert starved.conflict_stall_cycles > 0
        assert default.conflict_stall_cycles == 0

    def test_group_overheads_add_cycles(self, small_spec, small_workload):
        base = simulate_layer_cycles(small_spec, *small_workload)
        overhead = simulate_layer_cycles(
            small_spec,
            *small_workload,
            replace(SCNN_CONFIG, barrier_overhead_cycles=32, drain_overhead_cycles=16),
        )
        assert overhead.cycles > base.cycles

    def test_nonzero_counts_reported(self, small_spec, small_workload):
        weights, activations = small_workload
        result = simulate_layer_cycles(small_spec, weights, activations)
        assert result.weight_nonzeros == np.count_nonzero(weights)
        assert result.activation_nonzeros == np.count_nonzero(activations)

    def test_group_cycles_sum_to_total(self, small_spec, small_workload):
        result = simulate_layer_cycles(small_spec, *small_workload)
        assert int(result.group_cycles.sum()) == result.cycles
