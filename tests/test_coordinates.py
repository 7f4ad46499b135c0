"""Unit tests for coordinate arithmetic (repro.tensor.coordinates)."""

import pytest
from hypothesis import given, strategies as st

from repro.tensor.coordinates import (
    halo_extent,
    output_coordinate,
    output_extent,
)


class TestOutputCoordinate:
    def test_unit_stride_no_padding(self):
        # out_x = in_x - r
        assert output_coordinate(5, 7, 2, 3) == (3, 4)

    def test_padding_shifts_origin(self):
        assert output_coordinate(0, 0, 0, 0, pad=1) == (1, 1)

    def test_negative_coordinates_rejected(self):
        assert output_coordinate(0, 0, 1, 0) is None
        assert output_coordinate(0, 0, 0, 2) is None

    def test_stride_skips_non_multiples(self):
        assert output_coordinate(4, 4, 0, 0, stride=2) == (2, 2)
        assert output_coordinate(5, 4, 0, 0, stride=2) is None

    def test_stride_with_padding(self):
        # in_x + pad - r = 5 + 1 - 2 = 4; 4 / 2 = 2
        assert output_coordinate(5, 3, 2, 0, stride=2, pad=1) == (2, 2)

    @given(
        st.integers(0, 30), st.integers(0, 30), st.integers(0, 6), st.integers(0, 6),
        st.integers(1, 4), st.integers(0, 3),
    )
    def test_consistent_with_forward_mapping(self, x, y, r, s, stride, pad):
        coords = output_coordinate(x, y, r, s, stride=stride, pad=pad)
        if coords is not None:
            out_x, out_y = coords
            # The forward convolution relation must hold exactly.
            assert out_x * stride - pad + r == x
            assert out_y * stride - pad + s == y


class TestOutputExtent:
    @pytest.mark.parametrize(
        "input_size,filter_size,stride,pad,expected",
        [
            (227, 11, 4, 0, 55),   # AlexNet conv1
            (27, 5, 1, 2, 27),     # AlexNet conv2
            (224, 3, 1, 1, 224),   # VGG conv1_1
            (28, 1, 1, 0, 28),     # GoogLeNet 1x1
            (224, 7, 2, 3, 112),   # GoogLeNet stem conv1
        ],
    )
    def test_catalogue_extents(self, input_size, filter_size, stride, pad, expected):
        assert output_extent(input_size, filter_size, stride, pad) == expected

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            output_extent(2, 5, 1, 0)


class TestHaloExtent:
    def test_three_by_three_unit_stride(self):
        assert halo_extent(3, 1) == 2

    def test_pointwise_has_no_halo(self):
        assert halo_extent(1, 1) == 0

    def test_stride_shrinks_halo(self):
        assert halo_extent(11, 4) == 2
