"""Tests for workload construction and forward inference (repro.nn.inference)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.workloads import network_handles
from repro.nn.densities import LayerSparsity, network_sparsity
from repro.nn.inference import (
    activation_nonzeros,
    build_layer_masks,
    generate_activations,
    run_forward,
)
from repro.nn.layers import ConvLayerSpec
from repro.nn.networks import Network, alexnet, googlenet, vggnet
from repro.nn.pruning import generate_pruned_weights
from repro.scnn.oracle import nonzero_multiplies

from _helpers import make_handle


@pytest.fixture
def spec():
    return ConvLayerSpec("t", 6, 12, 20, 20, 3, 3, padding=1)


class TestGenerateActivations:
    def test_density_hit_exactly(self, spec, rng):
        for density in (0.1, 0.3, 0.5, 0.9):
            acts = generate_activations(spec, density, rng)
            measured = np.count_nonzero(acts) / acts.size
            assert measured == pytest.approx(density, abs=2.0 / acts.size)

    def test_fully_dense(self, spec, rng):
        acts = generate_activations(spec, 1.0, rng)
        assert np.count_nonzero(acts) == acts.size

    def test_values_non_negative(self, spec, rng):
        acts = generate_activations(spec, 0.4, rng)
        assert (acts >= 0).all()

    def test_shape_matches_spec(self, spec, rng):
        assert generate_activations(spec, 0.5, rng).shape == spec.input_shape

    def test_spatial_correlation_present(self, spec, rng):
        """Non-zeros should cluster: neighbouring pixels agree more often than
        independent Bernoulli draws would."""
        acts = generate_activations(spec, 0.5, rng, correlation_radius=2)
        mask = (acts != 0).astype(float)
        horizontal_agreement = float((mask[:, :, :-1] == mask[:, :, 1:]).mean())
        assert horizontal_agreement > 0.55

    def test_invalid_density_rejected(self, spec, rng):
        with pytest.raises(ValueError):
            generate_activations(spec, 0.0, rng)


@given(
    channels=st.integers(min_value=1, max_value=6),
    height=st.integers(min_value=1, max_value=12),
    width=st.integers(min_value=1, max_value=12),
    density=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=150, deadline=None)
def test_activation_nonzeros_is_the_generated_count(
    channels, height, width, density, seed
):
    """The count the engine derives output densities from is exactly what
    synthesis produces, for any shape, density and seed."""
    spec = ConvLayerSpec("p", channels, 4, height, width, 1, 1)
    acts = generate_activations(spec, density, np.random.default_rng(seed))
    assert activation_nonzeros(spec, density) == np.count_nonzero(acts)


class TestWorkloadHandle:
    def test_densities_match_targets(self, spec):
        workload = make_handle(spec, 0.4, 0.6, seed=1234)
        assert workload.weight_density == pytest.approx(0.4, abs=0.01)
        assert workload.activation_density == pytest.approx(0.6, abs=0.01)

    def test_nonzero_multiplies_bounded_by_dense(self, spec):
        workload = make_handle(spec, 0.4, 0.6, seed=1234)
        products = nonzero_multiplies(spec, *workload.masks())
        assert 0 < products < spec.multiplies

    def test_nonzero_multiplies_exact_on_tiny_layer(self, rng):
        tiny = ConvLayerSpec("tiny", 1, 1, 3, 3, 3, 3)
        weights = np.ones(tiny.weight_shape)
        weights[0, 0, 0, 0] = 0.0
        activations = np.ones(tiny.input_shape)
        activations[0, 1, 1] = 0.0
        # Single output position; products = nonzero pairs at aligned offsets.
        # 9 positions, weight (0,0) is zero and activation (1,1) is zero ->
        # 9 - 2 = 7 products (they do not overlap).
        assert nonzero_multiplies(tiny, weights, activations) == 7


#: 1e-6 clamps the kept weights to one and rounds the activations to none.
DENSITIES = st.one_of(
    st.sampled_from([1e-6, 1.0]), st.floats(min_value=0.01, max_value=1.0)
)


@st.composite
def layer_specs(draw):
    """Small layers over every shape class: strides, groups, padding, 1x1."""
    groups = draw(st.sampled_from([1, 2]))
    size = draw(st.sampled_from([1, 3, 5]))
    padding = draw(st.integers(min_value=0, max_value=size // 2))
    extent = st.integers(min_value=max(1, size - 2 * padding), max_value=14)
    return ConvLayerSpec(
        "p",
        groups * draw(st.integers(min_value=1, max_value=4)),
        groups * draw(st.integers(min_value=1, max_value=4)),
        draw(extent),
        draw(extent),
        size,
        size,
        stride=draw(st.sampled_from([1, 2, 4])),
        padding=padding,
        groups=groups,
    )


@given(
    spec=layer_specs(),
    weight_density=DENSITIES,
    activation_density=DENSITIES,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_layer_masks_are_the_workload_nonzeros(
    spec, weight_density, activation_density, seed
):
    """The mask synthesis is ``!= 0`` of the tensor synthesis, from the same
    draws: the generator ends at the same next draw."""
    sparsity = LayerSparsity(weight_density, activation_density)
    tensors, masks = np.random.default_rng(seed), np.random.default_rng(seed)
    dense_weights = generate_pruned_weights(spec, weight_density, tensors)
    dense_activations = generate_activations(spec, activation_density, tensors)
    weights, activations = build_layer_masks(spec, sparsity, masks)
    assert weights.dtype == activations.dtype == bool
    assert np.array_equal(weights, dense_weights != 0)
    assert np.array_equal(activations, dense_activations != 0)
    assert masks.random() == tensors.random()


class TestNetworkHandles:
    """One recipe handle per layer (:func:`repro.engine.workloads.network_handles`)."""

    def test_one_workload_per_layer(self):
        network = alexnet()
        _, workloads = network_handles(network, seed=0)
        assert [w.spec.name for w in workloads] == [l.name for l in network.layers]

    def test_reproducible_across_calls(self):
        network = alexnet()
        _, first = network_handles(network, seed=7)
        _, second = network_handles(network, seed=7)
        for a, b in zip(first, second):
            for mask_a, mask_b in zip(a.masks(), b.masks()):
                np.testing.assert_array_equal(mask_a, mask_b)

    def test_different_seeds_differ(self):
        network = alexnet()
        _, first = network_handles(network, seed=1)
        _, second = network_handles(network, seed=2)
        assert not np.array_equal(first[2].masks()[0], second[2].masks()[0])

    def test_densities_match_calibration(self):
        network = alexnet()
        calibration = network_sparsity(network)
        for workload in network_handles(network, seed=0)[1]:
            target = calibration[workload.spec.name]
            assert workload.weight_density == pytest.approx(
                target.weight_density, abs=0.01
            )
            assert workload.activation_density == pytest.approx(
                target.activation_density, abs=0.01
            )

    def test_missing_calibration_rejected(self):
        network = alexnet()
        with pytest.raises(KeyError):
            network_handles(network, seed=0, sparsity={})


class TestRunForward:
    def _tiny_network(self):
        return Network(
            "tiny",
            (
                ConvLayerSpec("c1", 3, 8, 17, 17, 5, 5, stride=2),
                ConvLayerSpec("c2", 8, 12, 7, 7, 3, 3, padding=1),
                ConvLayerSpec("c3", 12, 8, 3, 3, 3, 3, padding=1),
            ),
        )

    def test_chains_layers_with_pooling(self, rng):
        network = self._tiny_network()
        weights = [generate_pruned_weights(spec, 0.5, rng) for spec in network.layers]
        image = np.abs(rng.normal(size=(3, 17, 17)))
        results = run_forward(network, weights, image)
        assert [r.layer_name for r in results] == ["c1", "c2", "c3"]
        assert results[-1].output.shape == network.layers[-1].output_shape
        for result in results:
            assert (result.output >= 0).all()
            assert 0.0 <= result.output_density <= 1.0

    def test_relu_produces_sparsity(self, rng):
        network = self._tiny_network()
        weights = [generate_pruned_weights(spec, 0.5, rng) for spec in network.layers]
        image = np.abs(rng.normal(size=(3, 17, 17)))
        results = run_forward(network, weights, image)
        # ReLU over zero-mean pre-activations clamps a substantial fraction.
        assert results[0].output_density < 0.9

    def test_weight_count_mismatch_rejected(self, rng):
        network = self._tiny_network()
        with pytest.raises(ValueError):
            run_forward(network, [], np.zeros((3, 17, 17)))

    def test_wrong_input_shape_rejected(self, rng):
        network = self._tiny_network()
        weights = [generate_pruned_weights(spec, 0.5, rng) for spec in network.layers]
        with pytest.raises(ValueError):
            run_forward(network, weights, np.zeros((3, 9, 9)))

    def test_branching_network_rejected(self, rng):
        # GoogLeNet is not sequential: channel counts cannot chain.
        network = googlenet()
        weights = [generate_pruned_weights(spec, 0.5, rng) for spec in network.layers]
        image = np.abs(rng.normal(size=network.layers[0].input_shape))
        with pytest.raises(ValueError):
            run_forward(network, weights, image)
