"""Tests for the convolutional layer shape algebra (repro.nn.layers)."""

import pytest

from repro.nn.layers import BYTES_PER_VALUE, ConvLayerSpec, LayerShapeError


class TestCatalogueShapes:
    def test_alexnet_conv1(self):
        spec = ConvLayerSpec("conv1", 3, 96, 227, 227, 11, 11, stride=4)
        assert spec.output_shape == (96, 55, 55)
        assert spec.multiplies == 55 * 55 * 96 * 3 * 11 * 11

    def test_alexnet_conv2_grouped(self):
        spec = ConvLayerSpec("conv2", 96, 256, 27, 27, 5, 5, padding=2, groups=2)
        assert spec.output_shape == (256, 27, 27)
        assert spec.weight_shape == (256, 48, 5, 5)
        assert spec.multiplies == 27 * 27 * 256 * 48 * 25

    def test_vgg_conv_same_padding(self):
        spec = ConvLayerSpec("conv3_1", 128, 256, 56, 56, 3, 3, padding=1)
        assert spec.output_shape == (256, 56, 56)

    def test_pointwise(self):
        spec = ConvLayerSpec("1x1", 480, 192, 14, 14, 1, 1)
        assert spec.output_shape == (192, 14, 14)
        assert spec.weight_count == 480 * 192


class TestFootprints:
    def test_weight_bytes_use_two_byte_values(self):
        spec = ConvLayerSpec("x", 4, 8, 10, 10, 3, 3, padding=1)
        assert spec.weight_bytes == spec.weight_count * BYTES_PER_VALUE

    def test_activation_counts(self):
        spec = ConvLayerSpec("x", 4, 8, 10, 12, 3, 3, padding=1)
        assert spec.input_activation_count == 4 * 10 * 12
        assert spec.output_activation_count == 8 * 10 * 12
        assert spec.input_activation_bytes == 2 * spec.input_activation_count

    def test_output_activation_bytes(self):
        spec = ConvLayerSpec("x", 4, 8, 11, 11, 3, 3, stride=2)
        assert spec.output_shape == (8, 5, 5)
        assert spec.output_activation_bytes == 8 * 5 * 5 * BYTES_PER_VALUE


class TestValidation:
    def test_negative_dimension_rejected(self):
        with pytest.raises(LayerShapeError):
            ConvLayerSpec("bad", 0, 8, 10, 10, 3, 3)

    def test_negative_padding_rejected(self):
        with pytest.raises(LayerShapeError):
            ConvLayerSpec("bad", 4, 8, 10, 10, 3, 3, padding=-1)

    def test_groups_must_divide_channels(self):
        with pytest.raises(LayerShapeError):
            ConvLayerSpec("bad", 6, 8, 10, 10, 3, 3, groups=4)

    def test_filter_larger_than_padded_input_rejected(self):
        with pytest.raises(LayerShapeError):
            ConvLayerSpec("bad", 4, 8, 4, 4, 7, 7)

    def test_describe_mentions_name_and_shape(self):
        spec = ConvLayerSpec("conv9", 4, 8, 10, 10, 3, 3, padding=1)
        text = spec.describe()
        assert "conv9" in text
        assert "4x10x10" in text
        assert "8x10x10" in text

    def test_describe_mentions_groups_when_present(self):
        spec = ConvLayerSpec("g", 4, 8, 10, 10, 3, 3, padding=1, groups=2)
        assert "groups=2" in spec.describe()

    def test_frozen(self):
        spec = ConvLayerSpec("x", 4, 8, 10, 10, 3, 3, padding=1)
        with pytest.raises(AttributeError):
            spec.in_channels = 16
