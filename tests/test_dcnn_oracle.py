"""Tests for the dense DCNN baseline and the SCNN(oracle) bound."""

import math

import numpy as np
import pytest

from repro.arch import DCNN_CONFIG, SCNN_CONFIG
from repro.dataflow.tiling import plan_layer
from repro.nn.layers import ConvLayerSpec
from repro.scnn.dcnn import dense_busy_cycles, dense_cycle_metrics, simulate_dcnn_layer
from repro.scnn.oracle import nonzero_multiplies, oracle_cycles

from _helpers import make_workload


class TestDcnnBaseline:
    def test_cycles_independent_of_sparsity(self, small_spec):
        # The dense baseline performs every multiply regardless of operand values.
        result = simulate_dcnn_layer(small_spec)
        assert result.multiplies == small_spec.multiplies
        assert result.cycles > 0

    def test_cycles_close_to_peak_throughput_on_large_layer(self):
        spec = ConvLayerSpec("vgg_like", 128, 256, 56, 56, 3, 3, padding=1)
        result = simulate_dcnn_layer(spec)
        ideal = spec.multiplies / DCNN_CONFIG.total_multipliers
        assert result.cycles == pytest.approx(ideal, rel=0.05)
        assert result.multiplier_utilization > 0.9

    def test_small_plane_loses_utilization(self):
        spec = ConvLayerSpec("late_1x1", 832, 128, 7, 7, 1, 1)
        result = simulate_dcnn_layer(spec)
        # 49 of 64 PEs have work, so utilization cannot exceed 49/64.
        assert result.multiplier_utilization <= 49 / 64 + 1e-9
        assert result.idle_fraction > 0.2

    def test_grouped_layer_counts_grouped_macs(self, grouped_spec):
        result = simulate_dcnn_layer(grouped_spec)
        assert result.multiplies == grouped_spec.multiplies

    def test_busy_cycles_bounded_by_layer_cycles(self, small_spec):
        result = simulate_dcnn_layer(small_spec)
        assert (result.busy_cycles_per_pe <= result.cycles).all()

    def test_config_name_recorded(self, small_spec):
        assert simulate_dcnn_layer(small_spec).config_name == "DCNN"


# Odd K: a PE's output count is not a multiple of the I lanes, so its last
# dot-product step is partial.
ODD_CHANNELS = ConvLayerSpec("odd_k", 3, 5, 9, 9, 3, 3, padding=1)


def dcnn_plan(spec):
    rows, cols = DCNN_CONFIG.pe_grid
    return plan_layer(
        spec,
        num_pes=DCNN_CONFIG.num_pes,
        group_size=DCNN_CONFIG.output_channel_group,
        pe_rows=rows,
        pe_cols=cols,
    )


class TestDenseKernels:
    @pytest.mark.parametrize(
        "shape",
        ["small_spec", "strided_spec", "grouped_spec", "pointwise_spec", ODD_CHANNELS],
        ids=lambda shape: getattr(shape, "name", shape),
    )
    def test_busy_cycles_formula(self, request, shape):
        """Each PE streams ceil(P * K * ceil(C' * R * S / F) / I) cycles."""
        spec = request.getfixturevalue(shape) if isinstance(shape, str) else shape
        plan = dcnn_plan(spec)
        busy = dense_busy_cycles(spec, plan, DCNN_CONFIG)
        taps = spec.in_channels // spec.groups * spec.filter_height * spec.filter_width
        steps = math.ceil(taps / DCNN_CONFIG.multipliers_f)
        expected = [
            math.ceil(tile.size * spec.out_channels * steps / DCNN_CONFIG.multipliers_i)
            for tile in plan.output_tiles
        ]
        assert busy.dtype == np.int64
        assert busy.tolist() == expected

    def test_pes_without_a_tile_stay_idle(self):
        spec = ConvLayerSpec("tiny", 8, 16, 4, 4, 3, 3, padding=1)
        plan = dcnn_plan(spec)
        busy = dense_busy_cycles(spec, plan, DCNN_CONFIG)
        sizes = np.array([tile.size for tile in plan.output_tiles])
        assert (busy[sizes == 0] == 0).all()
        assert (busy[sizes > 0] > 0).all()
        assert np.count_nonzero(busy) == 16

    def test_metrics_of_a_stack_are_the_metrics_of_each_layer(
        self, small_spec, pointwise_spec
    ):
        specs = [small_spec, pointwise_spec]
        busy = np.stack([dense_busy_cycles(s, dcnn_plan(s), DCNN_CONFIG) for s in specs])
        multiplies = np.array([s.multiplies for s in specs])
        stacked = dense_cycle_metrics(
            busy, multiplies, DCNN_CONFIG.num_pes, DCNN_CONFIG.multipliers_per_pe
        )
        for row, spec in enumerate(specs):
            single = dense_cycle_metrics(
                busy[row], spec.multiplies, DCNN_CONFIG.num_pes,
                DCNN_CONFIG.multipliers_per_pe,
            )
            for stacked_metric, single_metric in zip(stacked, single):
                assert stacked_metric[row] == single_metric
            layer = simulate_dcnn_layer(spec)
            assert stacked[0][row] == layer.cycles
            assert stacked[1][row] == layer.multiplier_utilization
            assert stacked[2][row] == layer.idle_fraction

    def test_an_idle_layer_reports_zero(self):
        cycles, utilization, idle = dense_cycle_metrics(
            np.zeros(64, dtype=np.int64), 0, 64, 16
        )
        assert (cycles, utilization, idle) == (0, 0.0, 0.0)


class TestOracle:
    def test_nonzero_multiplies_dense_case_unpadded(self):
        spec = ConvLayerSpec("nopad", 4, 8, 12, 12, 3, 3)
        weights = np.ones(spec.weight_shape)
        activations = np.ones(spec.input_shape)
        assert nonzero_multiplies(spec, weights, activations) == spec.multiplies

    def test_nonzero_multiplies_dense_case_padded(self, small_spec):
        weights = np.ones(small_spec.weight_shape)
        activations = np.ones(small_spec.input_shape)
        # Padding positions never hold real activations, so the oracle count is
        # strictly below the dense MAC count (which charges for them) but close.
        count = nonzero_multiplies(small_spec, weights, activations)
        assert 0.8 * small_spec.multiplies < count < small_spec.multiplies

    def test_zero_weights_produce_zero_work(self, small_spec):
        weights = np.zeros(small_spec.weight_shape)
        activations = np.ones(small_spec.input_shape)
        assert nonzero_multiplies(small_spec, weights, activations) == 0

    def test_scales_with_density(self, small_spec):
        dense = make_workload(small_spec, 1.0, 1.0)
        sparse = make_workload(small_spec, 0.3, 0.4)
        dense_count = nonzero_multiplies(small_spec, dense.weights, dense.activations)
        sparse_count = nonzero_multiplies(small_spec, sparse.weights, sparse.activations)
        assert sparse_count == pytest.approx(dense_count * 0.12, rel=0.25)

    def test_oracle_cycles_formula(self, small_spec):
        workload = make_workload(small_spec)
        products = nonzero_multiplies(small_spec, workload.weights, workload.activations)
        cycles = oracle_cycles(products)
        assert cycles == max(1, -(-products // SCNN_CONFIG.total_multipliers))

    def test_oracle_cycles_accepts_precomputed_products(self):
        assert oracle_cycles(2048) == 2
        assert oracle_cycles(0) == 1

    def test_oracle_never_slower_than_cycle_model(self, small_workload):
        from repro.scnn.cycles import simulate_layer_cycles

        weights, activations = small_workload.weights, small_workload.activations
        result = simulate_layer_cycles(small_workload.spec, weights, activations)
        oracle = oracle_cycles(
            nonzero_multiplies(small_workload.spec, weights, activations)
        )
        assert oracle <= result.cycles
