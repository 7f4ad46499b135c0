"""The functional PT-IS-CP-sparse simulator must match the dense reference.

This is the core correctness guarantee of the reproduction: the sparse
Cartesian-product dataflow (compressed operands, per-PE tiling, output halos,
banked accumulation) computes exactly the same convolution as a dense
reference implementation, for every layer shape the catalogues use.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import SCNN_CONFIG
from repro.nn.inference import generate_activations
from repro.nn.layers import ConvLayerSpec
from repro.nn.pruning import generate_pruned_weights
from repro.nn.reference import conv2d_layer, relu
from repro.scnn.functional import run_functional_layer
from repro.scnn.oracle import nonzero_multiplies
from repro.tensor.formats import CompressedActivations

from _helpers import make_workload

# Same stride/filter structure as AlexNet conv1, smaller plane.
CONV1_LIKE = ConvLayerSpec("conv1_like", 3, 8, 35, 35, 11, 11, stride=4)
STEM_LIKE = ConvLayerSpec("stem_like", 3, 8, 21, 21, 7, 7, stride=2, padding=3)


def assert_layer_matches_reference(spec, weight_density=0.4, activation_density=0.5,
                                   seed=0, config=SCNN_CONFIG, apply_relu=True):
    workload = make_workload(spec, weight_density, activation_density, seed)
    result = run_functional_layer(
        spec, workload.weights, workload.activations, config, apply_relu=apply_relu
    )
    reference = conv2d_layer(workload.activations, workload.weights, spec)
    if apply_relu:
        reference = relu(reference)
    np.testing.assert_allclose(result.output, reference, atol=1e-9)
    return result


class TestEquivalenceAcrossLayerShapes:
    def test_same_padded_3x3(self, small_spec):
        assert_layer_matches_reference(small_spec)

    def test_strided_unpadded(self, strided_spec):
        assert_layer_matches_reference(strided_spec, 0.6, 0.8)

    def test_grouped(self, grouped_spec):
        assert_layer_matches_reference(grouped_spec, 0.45, 0.5)

    def test_pointwise(self, pointwise_spec):
        assert_layer_matches_reference(pointwise_spec, 0.3, 0.35)

    def test_five_by_five_padded(self):
        spec = ConvLayerSpec("5x5", 4, 8, 14, 14, 5, 5, padding=2)
        assert_layer_matches_reference(spec)

    def test_alexnet_conv1_shape_scaled_down(self):
        assert_layer_matches_reference(CONV1_LIKE, 0.84, 1.0)

    def test_stem_like_7x7_stride2(self):
        assert_layer_matches_reference(STEM_LIKE, 0.7, 1.0)

    def test_fully_dense_operands(self, small_spec):
        assert_layer_matches_reference(small_spec, 1.0, 1.0)

    def test_extremely_sparse_operands(self, small_spec):
        assert_layer_matches_reference(small_spec, 0.05, 0.05)

    def test_without_relu(self, small_spec):
        result = assert_layer_matches_reference(small_spec, apply_relu=False)
        # Pre-activation outputs may be negative.
        assert (result.output < 0).any()

    def test_plane_smaller_than_pe_grid(self):
        spec = ConvLayerSpec("tiny_plane", 16, 16, 5, 5, 3, 3, padding=1)
        assert_layer_matches_reference(spec, 0.4, 0.4)

    def test_single_input_channel(self):
        spec = ConvLayerSpec("c1", 1, 8, 12, 12, 3, 3, padding=1)
        assert_layer_matches_reference(spec)

    def test_non_square_plane(self):
        spec = ConvLayerSpec("rect", 4, 8, 10, 18, 3, 3, padding=1)
        assert_layer_matches_reference(spec)


class TestEquivalenceAcrossConfigurations:
    @pytest.mark.parametrize("num_pes", [4, 16, 64])
    def test_pe_count_does_not_change_results(self, small_spec, num_pes):
        workload = make_workload(small_spec)
        reference = relu(conv2d_layer(workload.activations, workload.weights, small_spec))
        config = SCNN_CONFIG.with_pe_count(num_pes)
        result = run_functional_layer(
            small_spec, workload.weights, workload.activations, config
        )
        np.testing.assert_allclose(result.output, reference, atol=1e-9)

    def test_group_size_does_not_change_results(self, small_spec):
        from dataclasses import replace

        workload = make_workload(small_spec)
        reference = relu(conv2d_layer(workload.activations, workload.weights, small_spec))
        for group_size in (2, 4, 16):
            config = replace(SCNN_CONFIG, output_channel_group=group_size)
            result = run_functional_layer(
                small_spec, workload.weights, workload.activations, config
            )
            np.testing.assert_allclose(result.output, reference, atol=1e-9)


class TestFunctionalStatistics:
    @pytest.mark.parametrize(
        "shape",
        ["small_spec", "strided_spec", "grouped_spec", "pointwise_spec",
         CONV1_LIKE, STEM_LIKE],
        ids=lambda shape: getattr(shape, "name", shape),
    )
    @pytest.mark.parametrize("densities", [(0.4, 0.5), (0.1, 0.2), (1.0, 1.0)])
    def test_multiplies_match_nonzero_products(self, request, shape, densities):
        """The oracle count equals the products the element-exact simulator issues."""
        spec = request.getfixturevalue(shape) if isinstance(shape, str) else shape
        workload = make_workload(spec, *densities)
        result = run_functional_layer(spec, workload.weights, workload.activations)
        assert result.multiplies == nonzero_multiplies(
            spec, workload.weights, workload.activations
        )

    def test_utilization_between_zero_and_one(self, small_workload):
        result = run_functional_layer(
            small_workload.spec, small_workload.weights, small_workload.activations
        )
        assert 0.0 < result.multiplier_utilization <= 1.0
        assert 0.0 <= result.idle_fraction < 1.0

    def test_cycles_positive_and_bounded(self, small_workload):
        result = run_functional_layer(
            small_workload.spec, small_workload.weights, small_workload.activations
        )
        assert result.cycles > 0
        # No PE can be busy longer than the layer takes.
        assert (result.busy_cycles <= result.cycles).all()

    def test_output_density_reported(self, small_workload):
        result = run_functional_layer(
            small_workload.spec, small_workload.weights, small_workload.activations
        )
        expected = np.count_nonzero(result.output) / result.output.size
        assert result.output_density == pytest.approx(expected)

    def test_drain_applies_relu_and_compresses_into_oaram(self, small_workload):
        """The PPU drain: ReLU, then run-length re-compression into the OARAM."""
        result = run_functional_layer(
            small_workload.spec, small_workload.weights, small_workload.activations
        )
        assert np.array_equal(
            result.output, np.maximum(result.output_pre_activation, 0.0)
        )
        compressed = CompressedActivations(
            result.output, index_bits=max(SCNN_CONFIG.index_bits, 1)
        )
        assert result.oaram_bits == compressed.storage_bits()
        assert result.oaram_bits < result.output.size * 16

    def test_shape_validation(self, small_spec, rng):
        with pytest.raises(ValueError):
            run_functional_layer(small_spec, np.zeros((1, 1, 3, 3)), np.zeros(small_spec.input_shape))
        with pytest.raises(ValueError):
            run_functional_layer(small_spec, np.zeros(small_spec.weight_shape), np.zeros((1, 4, 4)))


@given(
    st.integers(min_value=1, max_value=4),     # input channels
    st.integers(min_value=1, max_value=8),     # output channels
    st.integers(min_value=6, max_value=16),    # plane extent
    st.sampled_from([1, 3]),                   # filter size
    st.sampled_from([(1, 0), (1, 1), (2, 0)]),  # (stride, padding)
    st.floats(min_value=0.05, max_value=1.0),  # weight density
    st.floats(min_value=0.05, max_value=1.0),  # activation density
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_functional_equivalence_property(
    channels, filters, extent, filt, stride_pad, wd, ad, seed
):
    stride, pad = stride_pad
    if extent + 2 * pad < filt:
        return
    spec = ConvLayerSpec("prop", channels, filters, extent, extent, filt, filt,
                         stride=stride, padding=pad)
    rng = np.random.default_rng(seed)
    weights = generate_pruned_weights(spec, wd, rng)
    activations = generate_activations(spec, ad, rng)
    result = run_functional_layer(spec, weights, activations)
    reference = relu(conv2d_layer(activations, weights, spec))
    np.testing.assert_allclose(result.output, reference, atol=1e-9)
    assert result.multiplies == nonzero_multiplies(spec, weights, activations)
