"""Tests for synthetic weight generation and magnitude pruning."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.layers import ConvLayerSpec
from repro.nn.pruning import (
    generate_dense_weights,
    generate_pruned_weights,
    prune_to_density,
    pruned_weight_mask,
)


@pytest.fixture
def spec():
    return ConvLayerSpec("test", 8, 16, 14, 14, 3, 3, padding=1)


class TestGenerateDenseWeights:
    def test_shape_matches_spec(self, spec, rng):
        weights = generate_dense_weights(spec, rng)
        assert weights.shape == spec.weight_shape

    def test_scale_follows_fan_in(self, rng):
        wide = ConvLayerSpec("wide", 512, 16, 14, 14, 3, 3, padding=1)
        narrow = ConvLayerSpec("narrow", 8, 16, 14, 14, 3, 3, padding=1)
        wide_weights = generate_dense_weights(wide, rng)
        narrow_weights = generate_dense_weights(narrow, rng)
        assert wide_weights.std() < narrow_weights.std()

    def test_deterministic_with_seeded_rng(self, spec):
        first = generate_dense_weights(spec, np.random.default_rng(5))
        second = generate_dense_weights(spec, np.random.default_rng(5))
        np.testing.assert_array_equal(first, second)


class TestPruneToDensity:
    def test_hits_target_density_exactly(self, spec, rng):
        weights = generate_dense_weights(spec, rng)
        for density in (0.1, 0.25, 0.5, 0.8):
            pruned = prune_to_density(weights, density, rng)
            expected = int(round(weights.size * density))
            assert np.count_nonzero(pruned) == expected

    def test_keeps_largest_magnitudes(self, rng):
        weights = np.array([0.1, -5.0, 0.2, 3.0, -0.05, 1.0])
        pruned = prune_to_density(weights, 0.5, rng)
        np.testing.assert_array_equal(
            pruned != 0, np.array([False, True, False, True, False, True])
        )

    def test_kept_values_unchanged(self, spec, rng):
        weights = generate_dense_weights(spec, rng)
        pruned = prune_to_density(weights, 0.3, rng)
        mask = pruned != 0
        np.testing.assert_array_equal(pruned[mask], weights[mask])

    def test_density_one_keeps_everything(self, spec, rng):
        weights = generate_dense_weights(spec, rng)
        np.testing.assert_array_equal(prune_to_density(weights, 1.0, rng), weights)

    def test_ties_still_hit_target(self, rng):
        weights = np.ones(100)
        pruned = prune_to_density(weights, 0.37, rng)
        assert np.count_nonzero(pruned) == 37

    def test_original_not_mutated(self, spec, rng):
        weights = generate_dense_weights(spec, rng)
        copy = weights.copy()
        prune_to_density(weights, 0.2, rng)
        np.testing.assert_array_equal(weights, copy)

    def test_invalid_density_rejected(self, spec, rng):
        weights = generate_dense_weights(spec, rng)
        with pytest.raises(ValueError):
            prune_to_density(weights, 0.0, rng)
        with pytest.raises(ValueError):
            prune_to_density(weights, 1.5, rng)

    def test_tiny_density_keeps_at_least_one(self, rng):
        weights = rng.normal(size=10)
        pruned = prune_to_density(weights, 0.001, rng)
        assert np.count_nonzero(pruned) == 1


class TestZeroDensityAndDegenerateShapes:
    """Edge cases: layers with no non-zeros and degenerate tile shapes."""

    def test_all_zero_tensor_prunes_to_all_zero(self, rng):
        weights = np.zeros(64)
        pruned = prune_to_density(weights, 0.25, rng)
        assert pruned.shape == weights.shape
        assert np.count_nonzero(pruned) == 0

    def test_empty_tensor_round_trips(self, rng):
        weights = np.zeros((0,))
        pruned = prune_to_density(weights, 0.5, rng)
        assert pruned.size == 0

    def test_one_by_one_filter_layer(self, rng):
        """A 1x1x1 filter is the degenerate tile shape: one weight total."""
        tiny = ConvLayerSpec("tiny", 1, 1, 1, 1, 1, 1)
        weights = generate_dense_weights(tiny, rng)
        assert weights.shape == (1, 1, 1, 1)
        pruned = prune_to_density(weights, 0.5, rng)
        # The keep-at-least-one guard applies: the single weight survives.
        assert np.count_nonzero(pruned) == 1

    def test_single_element_keeps_value(self, rng):
        weights = np.array([[3.25]])
        pruned = prune_to_density(weights, 0.01, rng)
        np.testing.assert_array_equal(pruned, weights)

    def test_zero_density_rejected_with_message(self, rng):
        with pytest.raises(ValueError, match="density must be in"):
            prune_to_density(np.ones(4), 0.0, rng)
        with pytest.raises(ValueError, match="density must be in"):
            prune_to_density(np.ones(4), -0.1, rng)


class TestGeneratePrunedWeights:
    def test_density_and_shape(self, spec, rng):
        weights = generate_pruned_weights(spec, 0.35, rng)
        assert weights.shape == spec.weight_shape
        assert np.count_nonzero(weights) / weights.size == pytest.approx(0.35, abs=0.01)

    def test_in_place_pruning_matches_the_copying_prune(self, spec):
        """Pruning the fresh dense draw in place gives prune_to_density's bits."""
        in_place = generate_pruned_weights(spec, 0.35, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        dense = generate_dense_weights(spec, rng)
        original = dense.copy()
        copied = prune_to_density(dense, 0.35, rng)
        assert in_place.tobytes() == copied.tobytes()
        assert dense.tobytes() == original.tobytes()  # the input is untouched


@given(
    st.integers(min_value=2, max_value=400),
    st.floats(min_value=0.01, max_value=1.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=100, deadline=None)
def test_pruning_density_property(size, density, seed):
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=size)
    pruned = prune_to_density(weights, density, rng)
    expected = max(1, int(round(size * density))) if density < 1.0 else size
    assert np.count_nonzero(pruned) == min(expected, size)
    # Pruned positions were not larger in magnitude than any kept position.
    kept = np.abs(pruned[pruned != 0])
    dropped = np.abs(weights[pruned == 0])
    if kept.size and dropped.size:
        assert dropped.max() <= kept.min() + 1e-9


class RepeatingDraws:
    """A generator stand-in whose draws repeat, so pruning keys tie exactly:
    ``normal`` tiles ``values`` and the jitter ``random`` draws is constant."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def normal(self, loc, scale, size):
        return np.resize(self.values, size)

    def random(self, size):
        return np.full(size, 0.5)


def reference_prune(weights, density, rng):
    """The pruning rule the float API keeps, draw for draw: round the kept
    count, return untouched (drawing nothing) when every weight is kept,
    clamp to one, then ``argpartition`` the jittered keys."""
    pruned = np.array(weights, dtype=float)
    total = pruned.size
    keep = int(round(total * density))
    if keep >= total:
        return pruned
    if keep <= 0:
        keep = 1
    keys = rng.random(total)
    keys *= 1e-12
    keys += np.abs(pruned).reshape(-1)
    pruned.reshape(-1)[np.argpartition(keys, total - keep)[: total - keep]] = 0.0
    return pruned


# One input channel is a one-weight layer: at density 0.5 or below its kept
# count rounds to none, is clamped to one, and the jitter is still drawn.
@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("density", [0.2, 0.5, 0.51, 0.9, 1.0])
def test_float_and_mask_paths_draw_what_the_reference_draws(channels, density):
    spec = ConvLayerSpec("tiny", channels, 1, 4, 4, 1, 1)
    reference, floats, masks = (np.random.default_rng(7) for _ in range(3))
    expected = reference_prune(
        generate_dense_weights(spec, reference), density, reference
    )
    pruned = generate_pruned_weights(spec, density, floats)
    assert pruned.tobytes() == expected.tobytes()
    assert np.array_equal(pruned_weight_mask(spec, density, masks), expected != 0)
    assert floats.random() == masks.random() == reference.random()


class TestTiesAtTheThreshold:
    """Keys that tie exactly keep the reference's ``argpartition`` selection."""

    VALUES = [1.0, -2.0, 2.0, 2.0, 3.0, -1.0, 2.0, 3.0, -2.0, 0.5, 2.0, -3.0]

    # Keeping 6 or 7 of the 12 puts the threshold inside the run of 2.0s.
    @pytest.mark.parametrize("density", [0.25, 0.5, 0.6, 0.9])
    def test_float_and_mask_paths_keep_the_argpartition_set(self, density):
        spec = ConvLayerSpec("ties", 2, 6, 4, 4, 1, 1)
        draws = RepeatingDraws(self.VALUES)
        expected = reference_prune(
            draws.normal(0.0, 1.0, spec.weight_shape), density, draws
        )
        pruned = generate_pruned_weights(spec, density, draws)
        assert pruned.tobytes() == expected.tobytes()
        assert np.array_equal(pruned_weight_mask(spec, density, draws), expected != 0)

    @given(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=60),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_tie_heavy_magnitudes(self, values, density):
        rng = RepeatingDraws([])
        expected = reference_prune(values, density, rng)
        assert prune_to_density(values, density, rng).tobytes() == expected.tobytes()
