"""Cross-module property-based tests.

These hypothesis tests tie the layers of the system together: whatever layer
shape, density and configuration are drawn, the compressed formats, the
dataflow counts, the functional simulator, the cycle model and the oracle
must stay mutually consistent.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import SCNN_CONFIG
from repro.dataflow.tiling import (
    activation_phase_nonzeros,
    plan_layer,
    weight_phase_nonzeros,
)
from repro.nn.inference import generate_activations
from repro.nn.layers import ConvLayerSpec
from repro.nn.pruning import generate_pruned_weights
from repro.scnn.cycles import simulate_layer_cycles
from repro.scnn.dcnn import simulate_dcnn_layer
from repro.scnn.oracle import nonzero_multiplies, oracle_cycles
from repro.tensor.formats import ActivationTileSet, CompressedWeights


layer_specs = st.builds(
    ConvLayerSpec,
    name=st.just("prop"),
    in_channels=st.integers(min_value=1, max_value=8),
    out_channels=st.integers(min_value=1, max_value=16),
    input_height=st.integers(min_value=7, max_value=20),
    input_width=st.integers(min_value=7, max_value=20),
    filter_height=st.sampled_from([1, 3]),
    filter_width=st.sampled_from([1, 3]),
    stride=st.sampled_from([1, 2]),
    padding=st.sampled_from([0, 1]),
)

densities = st.floats(min_value=0.05, max_value=1.0)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def build(spec, wd, ad, seed):
    rng = np.random.default_rng(seed)
    return (
        generate_pruned_weights(spec, wd, rng),
        generate_activations(spec, ad, rng),
    )


@given(layer_specs, densities, densities, seeds)
@settings(max_examples=30, deadline=None)
def test_compressed_counts_agree_with_tiling_counts(spec, wd, ad, seed):
    """The compressed containers and the fast count queries see the same non-zeros."""
    weights, activations = build(spec, wd, ad, seed)
    plan = plan_layer(spec, num_pes=SCNN_CONFIG.num_pes, group_size=8)

    compressed_weights = CompressedWeights(weights, group_size=8)
    phase_counts = weight_phase_nonzeros(weights, 8, spec.stride, spec.padding)
    assert compressed_weights.nonzero_counts().sum() == phase_counts.sum()

    rows, cols = plan.pe_rows, plan.pe_cols
    tiles = ActivationTileSet(
        activations, min(rows, spec.input_height), min(cols, spec.input_width)
    )
    act_counts = activation_phase_nonzeros(activations, plan, spec.stride, spec.padding)
    assert tiles.nonzero_counts().sum() == act_counts.sum()
    assert act_counts.sum() == np.count_nonzero(activations)


@given(layer_specs, densities, densities, seeds)
@settings(max_examples=25, deadline=None)
def test_cycle_model_invariants(spec, wd, ad, seed):
    """Cycle-model outputs respect the structural bounds of the architecture."""
    weights, activations = build(spec, wd, ad, seed)
    result = simulate_layer_cycles(spec, weights, activations)

    # Work accounting: the cycle model's product count includes boundary
    # pairs whose output falls off the plane, so it is bounded below by the
    # oracle's exact count and above by the issued multiplier slots.
    exact = nonzero_multiplies(spec, weights, activations)
    assert exact <= result.products
    assert result.products <= result.issue_steps * SCNN_CONFIG.multipliers_per_pe

    # Throughput accounting: cycles are bounded below by products / peak and
    # utilization never exceeds 1.
    assert result.cycles * SCNN_CONFIG.total_multipliers >= result.products
    assert 0.0 <= result.multiplier_utilization <= 1.0
    assert 0.0 <= result.busy_utilization <= 1.0
    assert 0.0 <= result.idle_fraction <= 1.0

    # The oracle is a true lower bound.
    assert oracle_cycles(exact) <= max(
        result.cycles, 1
    )


@given(layer_specs, densities, densities, seeds)
@settings(max_examples=20, deadline=None)
def test_sparse_never_does_more_issue_steps_than_dense(spec, wd, ad, seed):
    """Sparsifying operands can only reduce the SCNN issue-step count."""
    rng = np.random.default_rng(seed)
    dense_weights = generate_pruned_weights(spec, 1.0, rng)
    dense_acts = generate_activations(spec, 1.0, rng)
    sparse_weights = generate_pruned_weights(spec, wd, rng)
    sparse_acts = generate_activations(spec, ad, rng)

    dense_result = simulate_layer_cycles(spec, dense_weights, dense_acts)
    sparse_result = simulate_layer_cycles(spec, sparse_weights, sparse_acts)
    assert sparse_result.issue_steps <= dense_result.issue_steps
    assert sparse_result.products <= dense_result.products


@given(layer_specs)
@settings(max_examples=30, deadline=None)
def test_dense_baseline_is_shape_only(spec):
    """The DCNN baseline depends only on the layer shape."""
    first = simulate_dcnn_layer(spec)
    second = simulate_dcnn_layer(spec)
    assert first.cycles == second.cycles
    assert first.multiplies == spec.multiplies
    assert first.cycles * 1024 >= spec.multiplies  # cannot beat peak throughput
