"""Tests for the layer-level compressed containers (repro.tensor.formats)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensor.formats import (
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

    def test_tiles_are_numbered_row_major(self):
        """Tile ``i`` sits at grid row ``i // cols`` and column ``i % cols``;
        its bounds follow its row and column."""
        tiles = partition_plane(10, 13, 3, 4)
        for index, tile in enumerate(tiles):
            assert (tile.row, tile.col) == divmod(index, 4)
        assert tiles[5].y_lo == tiles[4].y_lo  # same row
        assert tiles[5].x_lo == tiles[4].x_hi  # next column
        assert tiles[4].y_lo == tiles[0].y_hi  # next row
        assert (tiles[-1].y_hi, tiles[-1].x_hi) == (10, 13)

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
    def test_one_block_per_group_and_channel(self):
        weights = sparse_tensor((16, 8, 3, 3), 0.4, seed=1)
        stats = CompressedWeights(weights, group_size=8).statistics
        assert stats.blocks == 2 * 8
        assert stats.dense_elements == weights.size
        assert stats.nonzero_elements == np.count_nonzero(weights)

    def test_group_count_rounds_up(self):
        weights = sparse_tensor((20, 4, 3, 3), 0.5, seed=2)
        stats = CompressedWeights(weights, group_size=8).statistics
        # Groups of 8, 8 and 4 output channels, each over 4 input channels.
        assert stats.blocks == 3 * 4
        assert stats.dense_elements == weights.size

    def test_nonzero_counts_match_dense(self):
        weights = sparse_tensor((16, 6, 3, 3), 0.3, seed=3)
        stats = CompressedWeights(weights, group_size=4).statistics
        assert stats.blocks == 4 * 6
        assert stats.nonzero_elements == np.count_nonzero(weights)

    def test_stored_counts_include_placeholders(self):
        weights = np.zeros((8, 2, 3, 3))
        weights[0, 0, 0, 0] = 1.0
        weights[7, 0, 2, 2] = 2.0  # 70 zeros apart in the (8, 3, 3) block
        weights[1, 1, 1, 1] = 3.0
        stats = CompressedWeights(weights, group_size=8, index_bits=4).statistics
        assert stats.nonzero_elements == 3
        # The 70-zero run takes 4 placeholders (16 zeros each) before the
        # 2.0 lands 6 zeros later: 6 stored in channel 0, 1 in channel 1.
        assert stats.placeholder_elements == 4
        assert stats.stored_elements == 6 + 1

    def test_density_and_storage(self):
        weights = sparse_tensor((8, 8, 3, 3), 0.25, seed=4)
        compressed = CompressedWeights(weights, group_size=8)
        assert compressed.density == pytest.approx(
            np.count_nonzero(weights) / weights.size
        )
        assert compressed.storage_bits() < compressed.dense_storage_bits()

    def test_value_width_scales_data_storage_only(self):
        """The data vector costs ``value_bits`` per stored element; the index
        vector's cost does not depend on it."""
        weights = sparse_tensor((8, 4, 3, 3), 0.3, seed=6)
        wide = CompressedWeights(weights, group_size=4)
        narrow = CompressedWeights(weights, group_size=4, value_bits=8)
        stored = wide.statistics.stored_elements
        assert narrow.statistics.stored_elements == stored
        assert wide.storage_bits() - narrow.storage_bits() == stored * (16 - 8)
        assert narrow.dense_storage_bits() == weights.size * 8
        assert wide.dense_storage_bits() == weights.size * 16

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            CompressedWeights(np.zeros((4, 4, 3)), group_size=4)
        with pytest.raises(ValueError):
            CompressedWeights(np.zeros((4, 4, 3, 3)), group_size=0)


class TestCompressedActivations:
    def test_one_block_per_channel_and_density(self):
        activations = sparse_tensor((4, 9, 9), 0.3, seed=10)
        compressed = CompressedActivations(activations)
        assert compressed.statistics.blocks == 4
        assert compressed.statistics.nonzero_elements == np.count_nonzero(activations)
        assert compressed.density == pytest.approx(
            np.count_nonzero(activations) / activations.size
        )

    def test_stored_counts_include_placeholders(self):
        activations = np.zeros((2, 8, 40))
        activations[0, 0, 0] = 1.0
        activations[0, 7, 39] = 2.0
        stats = CompressedActivations(activations, index_bits=4).statistics
        assert stats.blocks == 2
        assert stats.nonzero_elements == 2
        # A 318-zero run needs 19 placeholders in 4-bit runs (16 zeros each).
        assert stats.stored_elements == 21

    def test_each_channel_is_counted_once(self, monkeypatch):
        """The statistics read each block's non-zeros once and derive its
        placeholders from that count: one ``count_nonzero`` per channel."""
        activations = np.zeros((4, 8, 40))
        activations[:, 0, 0] = 1.0
        activations[:, 7, 39] = 2.0
        count_nonzero = np.count_nonzero
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return count_nonzero(*args, **kwargs)

        monkeypatch.setattr(np, "count_nonzero", counting)
        stats = CompressedActivations(activations, index_bits=4).statistics
        assert len(calls) == 4
        # Each channel's 318-zero run needs 19 placeholders.
        assert (stats.nonzero_elements, stats.placeholder_elements) == (8, 76)

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
def test_weights_statistics_property(num_k, num_c, density, seed):
    weights = sparse_tensor((num_k, num_c, 3, 3), density, seed=seed)
    stats = CompressedWeights(weights, group_size=4).statistics
    assert stats.blocks == -(-num_k // 4) * num_c
    assert stats.dense_elements == weights.size
    assert stats.nonzero_elements == np.count_nonzero(weights)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=20),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([2, 4, 8]),
)
@settings(max_examples=40, deadline=None)
def test_activations_statistics_property(channels, height, width, density, index_bits):
    activations = sparse_tensor((channels, height, width), density, seed=13)
    compressed = CompressedActivations(activations, index_bits=index_bits)
    stats = compressed.statistics
    assert stats.blocks == channels
    assert stats.dense_elements == activations.size
    assert stats.nonzero_elements == np.count_nonzero(activations)
    assert stats.stored_elements == stats.nonzero_elements + stats.placeholder_elements
    assert compressed.storage_bits() == stats.stored_elements * (16 + index_bits)
