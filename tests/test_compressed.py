"""Unit and property-based tests for the run-length compressed encoding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensor.compressed import (
    BlockStatistics,
    CompressedBlock,
    RunLengthIndex,
    compress_block,
)


def sparse_block(shape, density, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape)
    mask = rng.random(shape) < density
    return values * mask


class TestRunLengthIndex:
    def test_max_run_from_bits(self):
        assert RunLengthIndex((), index_bits=4).max_run == 15
        assert RunLengthIndex((), index_bits=8).max_run == 255

    def test_run_exceeding_width_rejected(self):
        with pytest.raises(ValueError):
            RunLengthIndex((16,), index_bits=4)

    def test_negative_run_rejected(self):
        with pytest.raises(ValueError):
            RunLengthIndex((-1,), index_bits=4)

    def test_storage_bits(self):
        index = RunLengthIndex((0, 3, 15), index_bits=4)
        assert index.storage_bits() == 12
        assert len(index) == 3


class TestCompressBlock:
    def test_dense_block_stores_everything_with_zero_runs(self):
        dense = np.arange(1, 13, dtype=float).reshape(3, 4)
        block = compress_block(dense)
        assert block.stored_elements == 12
        assert block.nonzero_count == 12
        assert all(run == 0 for run in block.index.zero_runs)

    def test_all_zero_block_stores_nothing(self):
        block = compress_block(np.zeros((4, 4)))
        assert block.stored_elements == 0
        assert block.nonzero_count == 0
        np.testing.assert_array_equal(block.decode(), np.zeros((4, 4)))

    def test_long_zero_run_inserts_placeholder(self):
        dense = np.zeros(40)
        dense[0] = 1.0
        dense[36] = 2.0  # gap of 35 zeros > 15 needs placeholders
        block = compress_block(dense, index_bits=4)
        assert block.placeholder_count == 2
        np.testing.assert_array_equal(block.decode(), dense)

    def test_trailing_zeros_cost_nothing(self):
        dense = np.zeros(100)
        dense[3] = 5.0
        block = compress_block(dense)
        assert block.stored_elements == 1
        np.testing.assert_array_equal(block.decode(), dense)

    def test_wider_index_avoids_placeholders(self):
        dense = np.zeros(300)
        dense[0] = 1.0
        dense[250] = 2.0
        narrow = compress_block(dense, index_bits=4)
        wide = compress_block(dense, index_bits=8)
        assert narrow.placeholder_count > 0
        assert wide.placeholder_count == 0

    def test_density_and_ratios(self):
        dense = sparse_block((8, 9), 0.25, seed=3)
        block = compress_block(dense)
        expected_density = np.count_nonzero(dense) / dense.size
        assert block.density == pytest.approx(expected_density)
        assert block.compression_ratio() > 1.0
        assert block.dense_storage_bits() == dense.size * 16

    def test_coordinates_match_nonzero_positions(self):
        dense = sparse_block((5, 7), 0.3, seed=9)
        block = compress_block(dense)
        decoded_positions = {
            coords for coords, value in block.iter_nonzeros()
        }
        expected = set(zip(*np.nonzero(dense)))
        assert decoded_positions == expected

    def test_flat_offsets_locate_stored_elements(self):
        dense = np.zeros(40)
        dense[[2, 3, 36]] = [1.0, 2.0, 3.0]
        block = compress_block(dense, index_bits=4)
        # Runs 2, 0, then 32 zeros: two placeholders at offsets 19 and 35.
        np.testing.assert_array_equal(block.flat_offsets(), [2, 3, 19, 35, 36])
        np.testing.assert_array_equal(
            dense[block.flat_offsets()], block.values
        )
        assert compress_block(np.zeros(8)).flat_offsets().size == 0

    def test_dense_size_is_the_block_volume(self):
        assert compress_block(np.ones((3, 4, 5))).dense_size == 60
        assert compress_block(np.zeros((7,))).dense_size == 7
        assert compress_block(np.zeros((0, 4))).dense_size == 0

    def test_iter_nonzeros_values(self):
        dense = sparse_block((6, 6), 0.4, seed=2)
        block = compress_block(dense)
        for coords, value in block.iter_nonzeros():
            assert dense[coords] == value


class TestFetchVectors:
    def test_fetch_count_matches_ceil(self):
        dense = sparse_block((10, 10), 0.37, seed=5)
        block = compress_block(dense)
        stored = block.stored_elements
        for width in (1, 2, 3, 4, 8):
            assert block.fetch_count(width) == -(-stored // width)
            vectors = block.fetch_vectors(width)
            assert len(vectors) == block.fetch_count(width)
            assert sum(len(v) for v in vectors) == stored
            # Only the final vector may be partial.
            assert all(len(v) == width for v in vectors[:-1])

    def test_invalid_width_rejected(self):
        block = compress_block(np.ones(4))
        with pytest.raises(ValueError):
            block.fetch_vectors(0)
        with pytest.raises(ValueError):
            block.fetch_count(-1)


class TestCompressedBlockValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            CompressedBlock(
                block_shape=(4,),
                values=np.array([1.0, 2.0]),
                index=RunLengthIndex((0,)),
            )


class TestBlockStatistics:
    def test_accumulates_across_blocks(self):
        stats = BlockStatistics()
        first = compress_block(sparse_block((4, 4), 0.5, seed=1))
        second = compress_block(sparse_block((4, 4), 0.25, seed=2))
        stats.add(first)
        stats.add(second)
        assert stats.blocks == 2
        assert stats.dense_elements == 32
        assert stats.nonzero_elements == first.nonzero_count + second.nonzero_count
        assert 0.0 <= stats.placeholder_overhead <= 1.0
        assert stats.storage_bits() == first.storage_bits() + second.storage_bits()

    def test_empty_statistics(self):
        stats = BlockStatistics()
        assert stats.density == 0.0
        assert stats.placeholder_overhead == 0.0
        assert stats.compression_ratio() == float("inf")


# ----------------------------------------------------------------------------
# Property-based tests: compression must be lossless for any block.
# ----------------------------------------------------------------------------

sparse_arrays = st.integers(min_value=1, max_value=60).flatmap(
    lambda n: st.lists(
        st.one_of(
            st.just(0.0),
            st.floats(
                min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
            ),
        ),
        min_size=n,
        max_size=n,
    )
)


@given(sparse_arrays, st.sampled_from([2, 3, 4, 8]))
@settings(max_examples=200, deadline=None)
def test_roundtrip_is_lossless(values, index_bits):
    dense = np.array(values)
    block = compress_block(dense, index_bits=index_bits)
    np.testing.assert_array_equal(block.decode(), dense)


@given(sparse_arrays)
@settings(max_examples=100, deadline=None)
def test_nonzero_count_preserved(values):
    dense = np.array(values)
    block = compress_block(dense)
    assert block.nonzero_count == np.count_nonzero(dense)


@given(sparse_arrays, st.sampled_from([4, 8]))
@settings(max_examples=100, deadline=None)
def test_zero_runs_fit_index_width(values, index_bits):
    dense = np.array(values)
    block = compress_block(dense, index_bits=index_bits)
    assert all(0 <= run <= block.index.max_run for run in block.index.zero_runs)


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_multidimensional_roundtrip(channels, height, width, density, seed):
    dense = sparse_block((channels, height, width), density, seed=seed)
    block = compress_block(dense)
    np.testing.assert_array_equal(block.decode(), dense)
    assert block.block_shape == dense.shape
