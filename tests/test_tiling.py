"""Tests for planar tiling and the fast non-zero-count queries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataflow.tiling import (
    activation_phase_nonzeros,
    pe_grid_for,
    plan_layer,
    weight_phase_nonzeros,
)
from repro.nn.layers import ConvLayerSpec


def sparse(shape, density, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) * (rng.random(shape) < density)


class TestPeGrid:
    @pytest.mark.parametrize("num_pes,expected", [(64, (8, 8)), (16, (4, 4)), (4, (2, 2)), (8, (2, 4)), (1, (1, 1))])
    def test_square_ish_grids(self, num_pes, expected):
        assert pe_grid_for(num_pes) == expected

    def test_prime_counts_fall_back_to_row(self):
        assert pe_grid_for(7) == (1, 7)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            pe_grid_for(0)


class TestPlanLayer:
    def test_default_plan_covers_all_pes(self):
        spec = ConvLayerSpec("l", 16, 32, 28, 28, 3, 3, padding=1)
        plan = plan_layer(spec, num_pes=64, group_size=8)
        assert plan.num_pes == 64
        assert len(plan.input_tiles) == 64
        assert sum(tile.size for tile in plan.input_tiles) == 28 * 28
        assert plan.num_groups == 4

    def test_small_plane_leaves_pes_idle(self):
        spec = ConvLayerSpec("small", 16, 32, 7, 7, 3, 3, padding=1)
        plan = plan_layer(spec, num_pes=64, group_size=8)
        occupied = sum(1 for tile in plan.input_tiles if tile.size > 0)
        assert occupied == 49
        assert sum(tile.size for tile in plan.input_tiles) == 49

    def test_output_tiles_cover_output_plane(self):
        spec = ConvLayerSpec("s", 3, 8, 23, 23, 5, 5, stride=2)
        plan = plan_layer(spec, num_pes=16, group_size=8)
        assert sum(tile.size for tile in plan.output_tiles) == (
            spec.output_height * spec.output_width
        )

    def test_plans_with_one_plane_share_its_tiles(self):
        """Plans differing in group size or channels hold one tile tuple."""
        spec = ConvLayerSpec("l", 16, 32, 28, 28, 3, 3, padding=1)
        wider = ConvLayerSpec("w", 64, 48, 28, 28, 3, 3, padding=1)
        plan = plan_layer(spec, num_pes=64, group_size=8)
        for other in (
            plan_layer(spec, num_pes=64, group_size=4),
            plan_layer(wider, num_pes=64, group_size=8),
        ):
            assert other is not plan
            assert other.input_tiles is plan.input_tiles
            assert other.output_tiles is plan.output_tiles

    def test_halo_widths(self):
        spec = ConvLayerSpec("l", 16, 32, 28, 28, 3, 3, padding=1)
        plan = plan_layer(spec, num_pes=64, group_size=8)
        assert plan.halo_width == 2
        assert plan.halo_height == 2
        assert 0.0 < plan.halo_fraction() < 1.0

    def test_pointwise_has_no_halo(self):
        spec = ConvLayerSpec("p", 16, 32, 14, 14, 1, 1)
        plan = plan_layer(spec, num_pes=64, group_size=8)
        assert plan.halo_width == 0
        assert plan.halo_fraction() == 0.0

    def test_group_channels(self):
        spec = ConvLayerSpec("l", 16, 20, 28, 28, 3, 3, padding=1)
        plan = plan_layer(spec, num_pes=64, group_size=8)
        assert plan.num_groups == 3
        assert plan.group_channels(2) == (16, 17, 18, 19)

    @pytest.mark.parametrize("out_channels", [16, 20, 5])
    def test_groups_partition_the_output_channels(self, out_channels):
        """Kc-wide output-channel groups, the last one ragged, cover K once."""
        spec = ConvLayerSpec("l", 4, out_channels, 8, 8, 3, 3, padding=1)
        plan = plan_layer(spec, num_pes=4, group_size=8)
        groups = [plan.group_channels(group) for group in range(plan.num_groups)]
        assert [channel for group in groups for channel in group] == list(
            range(out_channels)
        )
        assert all(len(group) == 8 for group in groups[:-1])
        assert 0 < len(groups[-1]) <= 8

    def test_accumulator_entries_positive(self):
        spec = ConvLayerSpec("l", 16, 32, 28, 28, 3, 3, padding=1)
        plan = plan_layer(spec, num_pes=64, group_size=8)
        assert plan.accumulator_entries_per_group() > 8 * 3 * 3


class TestWeightCounts:
    def test_counts_match_dense(self):
        weights = sparse((16, 8, 3, 3), 0.4, seed=1)
        counts = weight_phase_nonzeros(weights, 8, stride=1)[:, :, 0]
        assert counts.shape == (2, 8)
        assert counts.sum() == np.count_nonzero(weights)
        for group in range(2):
            for c in range(8):
                assert counts[group, c] == np.count_nonzero(
                    weights[group * 8 : (group + 1) * 8, c]
                )

    def test_ragged_group(self):
        weights = sparse((10, 4, 3, 3), 0.5, seed=2)
        counts = weight_phase_nonzeros(weights, 8, stride=1)[:, :, 0]
        assert counts.shape == (2, 4)
        assert counts.sum() == np.count_nonzero(weights)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            weight_phase_nonzeros(np.zeros((4, 4, 3)), 8, stride=1)
        with pytest.raises(ValueError):
            weight_phase_nonzeros(np.zeros((4, 4, 3, 3)), 0, stride=1)


class TestPhaseCounts:
    def test_stride_one_single_phase(self):
        spec = ConvLayerSpec("l", 4, 8, 12, 12, 3, 3, padding=1)
        plan = plan_layer(spec, num_pes=4, group_size=8)
        activations = sparse(spec.input_shape, 0.5, seed=3)
        phases = activation_phase_nonzeros(activations, plan, stride=1)
        assert phases.shape == (4, 4, 1)
        for pe, tile in enumerate(plan.input_tiles):
            for c in range(spec.in_channels):
                assert phases[pe, c, 0] == np.count_nonzero(
                    activations[c, tile.y_lo : tile.y_hi, tile.x_lo : tile.x_hi]
                )

    def test_phases_partition_the_nonzeros(self):
        spec = ConvLayerSpec("s", 3, 8, 23, 23, 5, 5, stride=2)
        plan = plan_layer(spec, num_pes=16, group_size=8)
        activations = sparse(spec.input_shape, 0.6, seed=4)
        phases = activation_phase_nonzeros(activations, plan, stride=2)
        assert phases.shape == (16, 3, 4)
        assert phases.sum() == np.count_nonzero(activations)
        flat = activation_phase_nonzeros(activations, plan, stride=1)[:, :, 0]
        np.testing.assert_array_equal(phases.sum(axis=2), flat)

    def test_weight_phases_partition_the_nonzeros(self):
        weights = sparse((8, 3, 5, 5), 0.7, seed=5)
        phases = weight_phase_nonzeros(weights, group_size=8, stride=2, padding=0)
        assert phases.shape == (1, 3, 4)
        assert phases.sum() == np.count_nonzero(weights)
        flat = weight_phase_nonzeros(weights, 8, stride=1)[:, :, 0]
        np.testing.assert_array_equal(phases.sum(axis=2), flat)

    def test_phase_matching_consistent_with_output_coordinate(self):
        """An activation phase and its matched weight phase always produce a
        stride-aligned output coordinate."""
        from repro.tensor.coordinates import output_coordinate

        stride, pad = 2, 1
        for px in range(stride):
            for py in range(stride):
                act_phase = py * stride + px
                # weights assigned to this phase satisfy r % stride == (px+pad) % stride
                r = (px + pad) % stride
                s = (py + pad) % stride
                coords = output_coordinate(
                    px + 2 * stride, py + 2 * stride, r, s, stride=stride, pad=pad
                )
                assert coords is not None, act_phase

    def test_totals(self):
        """On a plane with no zeros each PE counts its whole tile, per channel."""
        spec = ConvLayerSpec("l", 4, 8, 12, 12, 3, 3, padding=1)
        plan = plan_layer(spec, num_pes=4, group_size=8)
        totals = activation_phase_nonzeros(np.ones(spec.input_shape), plan, stride=1)
        assert totals.sum() == 4 * 12 * 12
        for pe, tile in enumerate(plan.input_tiles):
            assert (totals[pe, :, 0] == tile.size).all()


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=4, max_value=30),
    st.sampled_from([1, 2, 3, 4]),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_phase_counts_always_partition(channels, extent, stride, density, seed):
    spec = ConvLayerSpec(
        "p", channels, 8, extent, extent,
        min(3, extent), min(3, extent), stride=stride,
    )
    plan = plan_layer(spec, num_pes=4, group_size=8)
    activations = sparse(spec.input_shape, density, seed=seed)
    phases = activation_phase_nonzeros(activations, plan, stride, spec.padding)
    assert phases.sum() == np.count_nonzero(activations)
    assert (phases >= 0).all()


class TestPlanMemoisation:
    def test_repeated_plans_are_the_same_object(self):
        spec = ConvLayerSpec("memo", 16, 32, 14, 14, 3, 3, padding=1)
        first = plan_layer(spec, num_pes=16, group_size=8)
        second = plan_layer(spec, num_pes=16, group_size=8)
        assert first is second

    def test_distinct_grid_parameters_plan_separately(self):
        spec = ConvLayerSpec("memo2", 16, 32, 14, 14, 3, 3, padding=1)
        assert plan_layer(spec, num_pes=16, group_size=8) is not plan_layer(
            spec, num_pes=4, group_size=8
        )
        assert plan_layer(spec, num_pes=16, group_size=8) is not plan_layer(
            spec, num_pes=16, group_size=4
        )

    def test_explicit_grid_matches_default_factorisation(self):
        spec = ConvLayerSpec("memo3", 16, 32, 14, 14, 3, 3, padding=1)
        rows, cols = pe_grid_for(16)
        assert plan_layer(spec, num_pes=16, group_size=8) is plan_layer(
            spec, num_pes=16, group_size=8, pe_rows=rows, pe_cols=cols
        )
