"""Tests for the 7-dimensional loop nest (repro.dataflow.loopnest)."""

import numpy as np
import pytest

from repro.dataflow.loopnest import (
    INPUT_STATIONARY_NEST,
    LOOP_VARIABLES,
    REFERENCE_NEST,
    LoopNest,
    execute_loop_nest,
    loop_bounds,
)
from repro.nn.layers import ConvLayerSpec
from repro.nn.reference import conv2d_layer


@pytest.fixture
def tiny_spec():
    return ConvLayerSpec("tiny", 3, 4, 6, 6, 3, 3, padding=1)


class TestLoopNest:
    def test_loop_variables_constant(self):
        assert LOOP_VARIABLES == ("N", "K", "C", "W", "H", "R", "S")

    def test_reference_order_matches_paper_figure_3(self):
        assert REFERENCE_NEST.order == ("N", "K", "C", "W", "H", "R", "S")

    def test_from_string(self):
        nest = LoopNest.from_string("N -> C -> W -> H -> K -> R -> S")
        assert nest == INPUT_STATIONARY_NEST
        assert str(nest) == "N -> C -> W -> H -> K -> R -> S"

    def test_invalid_permutation_rejected(self):
        with pytest.raises(ValueError):
            LoopNest(("N", "K", "C", "W", "H", "R", "R"))
        with pytest.raises(ValueError):
            LoopNest(("N", "K"))

    def test_position(self):
        assert REFERENCE_NEST.position("N") == 0
        assert REFERENCE_NEST.position("s") == 6

    def test_input_stationary_detection(self):
        assert INPUT_STATIONARY_NEST.is_input_stationary()
        assert not REFERENCE_NEST.is_input_stationary()


class TestLoopBounds:
    def test_bounds_match_spec(self, tiny_spec):
        bounds = loop_bounds(tiny_spec)
        assert bounds == {
            "N": 1, "K": 4, "C": 3, "W": 6, "H": 6, "R": 3, "S": 3,
        }

    def test_grouped_layer_bounds_use_channels_per_group(self):
        spec = ConvLayerSpec("g", 8, 8, 6, 6, 3, 3, padding=1, groups=2)
        assert loop_bounds(spec)["C"] == 4


class TestExecuteLoopNest:
    def test_matches_reference_convolution(self, tiny_spec, rng):
        activations = rng.normal(size=tiny_spec.input_shape)
        weights = rng.normal(size=tiny_spec.weight_shape)
        out = execute_loop_nest(tiny_spec, activations, weights)
        np.testing.assert_allclose(
            out, conv2d_layer(activations, weights, tiny_spec), atol=1e-10
        )

    def test_all_permutations_equivalent(self, tiny_spec, rng):
        """Multiply-add associativity: any loop order computes the same output."""
        activations = rng.normal(size=tiny_spec.input_shape)
        weights = rng.normal(size=tiny_spec.weight_shape)
        reference = execute_loop_nest(tiny_spec, activations, weights, REFERENCE_NEST)
        for order in (
            INPUT_STATIONARY_NEST,
            LoopNest(("S", "R", "H", "W", "C", "K", "N")),
            LoopNest(("K", "C", "N", "R", "S", "W", "H")),
        ):
            np.testing.assert_allclose(
                execute_loop_nest(tiny_spec, activations, weights, order),
                reference,
                atol=1e-10,
            )

    def test_strided_and_grouped(self, rng):
        spec = ConvLayerSpec("sg", 4, 4, 9, 9, 3, 3, stride=2, groups=2)
        activations = rng.normal(size=spec.input_shape)
        weights = rng.normal(size=spec.weight_shape)
        np.testing.assert_allclose(
            execute_loop_nest(spec, activations, weights),
            conv2d_layer(activations, weights, spec),
            atol=1e-10,
        )
