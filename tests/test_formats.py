"""Tests for the layer-level compressed containers (repro.tensor.formats)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensor.formats import (
    ActivationTileSet,
    CompressedActivations,
    CompressedWeights,
    partition_plane,
)


def sparse_tensor(shape, density, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) * (rng.random(shape) < density)


class TestPartitionPlane:
    def test_even_partition(self):
        tiles = partition_plane(16, 16, 4, 4)
        assert len(tiles) == 16
        assert all(tile.width == 4 and tile.height == 4 for tile in tiles)

    def test_uneven_partition_covers_plane_exactly(self):
        tiles = partition_plane(14, 14, 8, 8)
        covered = np.zeros((14, 14), dtype=int)
        for tile in tiles:
            covered[tile.y_lo : tile.y_hi, tile.x_lo : tile.x_hi] += 1
        np.testing.assert_array_equal(covered, np.ones((14, 14), dtype=int))

    def test_leading_tiles_take_remainder(self):
        tiles = partition_plane(10, 10, 3, 3)
        widths = sorted({tile.width for tile in tiles}, reverse=True)
        assert widths == [4, 3]

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            partition_plane(8, 8, 0, 2)

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_partition_is_exact_cover(self, height, width, rows, cols):
        rows = min(rows, height)
        cols = min(cols, width)
        tiles = partition_plane(height, width, rows, cols)
        assert len(tiles) == rows * cols
        assert sum(tile.size for tile in tiles) == height * width
        # Sizes differ by at most one in each dimension.
        widths = {tile.width for tile in tiles}
        heights = {tile.height for tile in tiles}
        assert max(widths) - min(widths) <= 1
        assert max(heights) - min(heights) <= 1


class TestCompressedWeights:
    def test_roundtrip(self):
        weights = sparse_tensor((16, 8, 3, 3), 0.4, seed=1)
        compressed = CompressedWeights(weights, group_size=8)
        np.testing.assert_allclose(compressed.decode(), weights)

    def test_group_count_rounds_up(self):
        weights = sparse_tensor((20, 4, 3, 3), 0.5, seed=2)
        compressed = CompressedWeights(weights, group_size=8)
        assert compressed.num_groups == 3
        assert compressed.group_channels(2) == (16, 17, 18, 19)

    def test_nonzero_counts_match_dense(self):
        weights = sparse_tensor((16, 6, 3, 3), 0.3, seed=3)
        compressed = CompressedWeights(weights, group_size=4)
        counts = compressed.nonzero_counts()
        assert counts.shape == (4, 6)
        for group in range(4):
            for c in range(6):
                expected = np.count_nonzero(weights[group * 4 : (group + 1) * 4, c])
                assert counts[group, c] == expected
        assert counts.sum() == np.count_nonzero(weights)

    def test_stored_counts_include_placeholders(self):
        weights = np.zeros((8, 2, 3, 3))
        weights[0, 0, 0, 0] = 1.0
        weights[7, 0, 2, 2] = 2.0  # 70 zeros apart in the (8, 3, 3) block
        weights[1, 1, 1, 1] = 3.0
        compressed = CompressedWeights(weights, group_size=8, index_bits=4)
        np.testing.assert_array_equal(compressed.nonzero_counts(), [[2, 1]])
        np.testing.assert_array_equal(compressed.stored_counts(), [[6, 1]])
        for c in range(2):
            assert compressed.stored_counts()[0, c] == (
                compressed.block(0, c).block.stored_elements
            )

    def test_density_and_storage(self):
        weights = sparse_tensor((8, 8, 3, 3), 0.25, seed=4)
        compressed = CompressedWeights(weights, group_size=8)
        assert compressed.density == pytest.approx(
            np.count_nonzero(weights) / weights.size
        )
        assert compressed.storage_bits() < compressed.dense_storage_bits()

    def test_block_lookup(self):
        weights = sparse_tensor((8, 4, 3, 3), 0.5, seed=5)
        compressed = CompressedWeights(weights, group_size=4)
        block = compressed.block(1, 2)
        assert block.group == 1
        assert block.input_channel == 2
        assert block.output_channels == (4, 5, 6, 7)
        np.testing.assert_allclose(block.block.decode(), weights[4:8, 2])

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            CompressedWeights(np.zeros((4, 4, 3)), group_size=4)
        with pytest.raises(ValueError):
            CompressedWeights(np.zeros((4, 4, 3, 3)), group_size=0)


class TestActivationTileSet:
    def test_roundtrip(self):
        activations = sparse_tensor((6, 14, 14), 0.5, seed=6)
        tiles = ActivationTileSet(activations, 4, 4)
        np.testing.assert_allclose(tiles.decode(), activations)

    def test_nonzero_counts_sum_to_total(self):
        activations = sparse_tensor((5, 13, 17), 0.35, seed=7)
        tiles = ActivationTileSet(activations, 3, 3)
        counts = tiles.nonzero_counts()
        assert counts.shape == (9, 5)
        assert counts.sum() == np.count_nonzero(activations)

    def test_stored_counts_and_channels(self):
        activations = np.zeros((2, 8, 40))
        activations[0, 0, 0] = 1.0
        activations[0, 7, 39] = 2.0
        tiles = ActivationTileSet(activations, 1, 1, index_bits=4)
        assert tiles.num_channels == 2
        np.testing.assert_array_equal(tiles.nonzero_counts(), [[2, 0]])
        # A 318-zero run needs 19 placeholders in 4-bit runs (16 zeros each).
        np.testing.assert_array_equal(tiles.stored_counts(), [[21, 0]])

    def test_tile_extents_accessible(self):
        activations = sparse_tensor((2, 8, 8), 1.0, seed=8)
        tiles = ActivationTileSet(activations, 2, 2)
        assert tiles.num_tiles == 4
        extent = tiles.tile_extent(3)
        assert (extent.row, extent.col) == (1, 1)

    def test_block_matches_dense_slice(self):
        activations = sparse_tensor((3, 10, 10), 0.4, seed=9)
        tiles = ActivationTileSet(activations, 2, 2)
        extent = tiles.tile_extent(2)
        block = tiles.block(2, 1)
        np.testing.assert_allclose(
            block.decode(),
            activations[1, extent.y_lo : extent.y_hi, extent.x_lo : extent.x_hi],
        )

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            ActivationTileSet(np.zeros((4, 4)), 2, 2)


class TestCompressedActivations:
    def test_roundtrip_and_density(self):
        activations = sparse_tensor((4, 9, 9), 0.3, seed=10)
        compressed = CompressedActivations(activations)
        np.testing.assert_allclose(compressed.decode(), activations)
        assert compressed.density == pytest.approx(
            np.count_nonzero(activations) / activations.size
        )

    def test_storage_shrinks_with_sparsity(self):
        dense = CompressedActivations(sparse_tensor((4, 12, 12), 1.0, seed=11))
        sparse = CompressedActivations(sparse_tensor((4, 12, 12), 0.2, seed=11))
        assert sparse.storage_bits() < dense.storage_bits()

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            CompressedActivations(np.zeros((3, 3)))


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_weights_roundtrip_property(num_k, num_c, density, seed):
    weights = sparse_tensor((num_k, num_c, 3, 3), density, seed=seed)
    compressed = CompressedWeights(weights, group_size=4)
    np.testing.assert_allclose(compressed.decode(), weights)
    assert compressed.nonzero_counts().sum() == np.count_nonzero(weights)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=20),
    st.integers(min_value=2, max_value=20),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_activation_tiles_roundtrip_property(channels, height, width, rows, cols, density):
    rows = min(rows, height)
    cols = min(cols, width)
    activations = sparse_tensor((channels, height, width), density, seed=13)
    tiles = ActivationTileSet(activations, rows, cols)
    np.testing.assert_allclose(tiles.decode(), activations)
    assert tiles.nonzero_counts().sum() == np.count_nonzero(activations)
