"""Numpy-vs-reference equivalence for the engine's vectorised hot loops.

The integral-image tile counts (repro.dataflow.tiling) and the batched
Monte-Carlo conflict estimate (repro.scnn.accumulator) replaced per-PE /
per-sample Python loops.  These tests pin them against straightforward
scalar reimplementations of the original loops on small workloads — exact
integer equality, not approximate agreement.

The per-layer synthesis kernels (fill-kernel draws, the two-order-statistic
threshold, the copy-free box filter), the int32 integral images and the
masks a trio simulation shares between its models are pinned bit for bit
against the implementations they replaced, kept below as references, and
their peak memory is bounded on the largest activation tensor of the trio.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.adapters import ArchLayerResult, LayerOperands, simulate_layer
from repro.arch.registry import SCNN_CONFIG, get_architecture
from repro.dataflow.tiling import (
    activation_phase_nonzeros,
    phase_integral_images,
    plan_layer,
    weight_phase_nonzeros,
)
from repro.engine.core import _layer_task
from repro.nn.inference import WorkloadHandle
from repro.nn.densities import network_sparsity
from repro.nn.inference import _quantile_threshold, _smooth, generate_activations
from repro.nn.layers import ConvLayerSpec
from repro.nn.networks import get_network
from repro.scnn.accumulator import expected_conflict_cycles
from repro.scnn.cycles import simulate_layer_cycles
from repro.scnn.oracle import nonzero_multiplies, oracle_cycles
from repro.scnn.simulator import TRIO

from _helpers import make_handle, make_workload, recipe_workload, trio_simulation


# -- scalar reference implementations (the pre-vectorisation loops) -----------


def scalar_tile_nonzeros(activations, plan):
    mask = activations != 0
    counts = np.zeros((plan.num_pes, activations.shape[0]), dtype=np.int64)
    for pe_index, tile in enumerate(plan.input_tiles):
        if tile.size == 0:
            continue
        counts[pe_index] = mask[
            :, tile.y_lo : tile.y_hi, tile.x_lo : tile.x_hi
        ].sum(axis=(1, 2))
    return counts


def scalar_phase_nonzeros(activations, plan, stride):
    mask = activations != 0
    num_c = activations.shape[0]
    counts = np.zeros((plan.num_pes, num_c, stride * stride), dtype=np.int64)
    if stride == 1:
        counts[:, :, 0] = scalar_tile_nonzeros(activations, plan)
        return counts
    for pe_index, tile in enumerate(plan.input_tiles):
        if tile.size == 0:
            continue
        for py in range(stride):
            for px in range(stride):
                sub = mask[
                    :,
                    tile.y_lo + ((py - tile.y_lo) % stride) : tile.y_hi : stride,
                    tile.x_lo + ((px - tile.x_lo) % stride) : tile.x_hi : stride,
                ]
                counts[pe_index, :, py * stride + px] = sub.sum(axis=(1, 2))
    return counts


def scalar_group_nonzeros(weights, group_size):
    num_k, num_c = weights.shape[:2]
    per_channel = np.count_nonzero(weights.reshape(num_k, num_c, -1), axis=2)
    num_groups = -(-num_k // group_size)
    counts = np.zeros((num_groups, num_c), dtype=np.int64)
    for group in range(num_groups):
        k_lo = group * group_size
        counts[group] = per_channel[k_lo : k_lo + group_size].sum(axis=0)
    return counts


def scalar_weight_phase_nonzeros(weights, group_size, stride, padding):
    mask = weights != 0
    num_k, num_c = weights.shape[:2]
    num_groups = -(-num_k // group_size)
    counts = np.zeros((num_groups, num_c, stride * stride), dtype=np.int64)
    for group in range(num_groups):
        block = mask[group * group_size : (group + 1) * group_size]
        for py in range(stride):
            for px in range(stride):
                sub = block[
                    :, :, (py + padding) % stride :: stride, (px + padding) % stride :: stride
                ]
                counts[group, :, py * stride + px] = sub.sum(axis=(0, 2, 3))
    return counts


def scalar_conflict_cycles(products, banks, queue_depth=4, samples=2048, seed=0):
    if products <= 0:
        return 0.0
    guaranteed = max(0, -(-products // banks) - 1)
    if banks >= products and queue_depth >= 2:
        return float(guaranteed)
    rng = np.random.default_rng(seed)
    assignments = rng.integers(0, banks, size=(samples, products))
    stalls = 0.0
    for row in assignments:
        loads = np.bincount(row, minlength=banks)
        overflow = np.maximum(loads - queue_depth, 0).sum()
        stalls += max(loads.max() - 1 if queue_depth <= 1 else 0, overflow)
    return float(guaranteed) + stalls / samples


SHAPES = [
    # (name, C, K, H, W, filter, stride, padding, num_pes)
    ("same_padded", 8, 16, 14, 14, 3, 1, 1, 64),
    ("strided", 3, 8, 23, 23, 5, 2, 0, 64),
    ("strided_nonsquare", 5, 17, 31, 13, 3, 2, 1, 64),
    ("stride3_awkward", 2, 3, 5, 5, 3, 3, 1, 4),
    ("pointwise_small_grid", 24, 16, 7, 7, 1, 1, 0, 16),
]


@pytest.mark.parametrize("shape", SHAPES, ids=[s[0] for s in SHAPES])
class TestTileCountEquivalence:
    def _workload_and_plan(self, shape, num_pes_override=None):
        _, c, k, h, w, f, stride, pad, num_pes = shape
        spec = ConvLayerSpec(
            "vec", c, k, h, w, f, f, stride=stride, padding=pad
        )
        plan = plan_layer(
            spec, num_pes=num_pes_override or num_pes, group_size=8
        )
        return spec, plan, make_workload(spec, 0.4, 0.5, seed=11)

    def test_activation_tile_counts(self, shape):
        _, plan, (_, activations) = self._workload_and_plan(shape)
        assert np.array_equal(
            activation_phase_nonzeros(activations, plan, stride=1)[:, :, 0],
            scalar_tile_nonzeros(activations, plan),
        )

    def test_activation_phase_counts(self, shape):
        spec, plan, (_, activations) = self._workload_and_plan(shape)
        assert np.array_equal(
            activation_phase_nonzeros(
                activations, plan, spec.stride, spec.padding
            ),
            scalar_phase_nonzeros(activations, plan, spec.stride),
        )

    def test_weight_group_counts(self, shape):
        spec, _, (weights, _) = self._workload_and_plan(shape)
        for group_size in (3, 8, 16):
            assert np.array_equal(
                weight_phase_nonzeros(weights, group_size, stride=1)[:, :, 0],
                scalar_group_nonzeros(weights, group_size),
            )

    def test_weight_phase_counts(self, shape):
        spec, _, (weights, _) = self._workload_and_plan(shape)
        for group_size in (3, 8, 16):
            assert np.array_equal(
                weight_phase_nonzeros(
                    weights, group_size, spec.stride, spec.padding
                ),
                scalar_weight_phase_nonzeros(
                    weights, group_size, spec.stride, spec.padding
                ),
            )

    def test_weight_phase_counts_cover_all_nonzeros(self, shape):
        spec, _, (weights, _) = self._workload_and_plan(shape)
        counts = weight_phase_nonzeros(weights, 8, spec.stride, spec.padding)
        assert counts.sum() == np.count_nonzero(weights)

    def test_phase_counts_partition_tile_counts(self, shape):
        """Summing over phases must reproduce the unphased per-tile counts."""
        spec, plan, (_, activations) = self._workload_and_plan(shape)
        phased = activation_phase_nonzeros(
            activations, plan, spec.stride, spec.padding
        )
        assert np.array_equal(
            phased.sum(axis=2),
            activation_phase_nonzeros(activations, plan, stride=1)[:, :, 0],
        )


class TestConflictEstimateEquivalence:
    @pytest.mark.parametrize("products", [1, 4, 16, 33])
    @pytest.mark.parametrize("banks", [2, 4, 16, 64])
    @pytest.mark.parametrize("queue_depth", [1, 2, 4])
    def test_monte_carlo_matches_scalar_loop(self, products, banks, queue_depth):
        assert expected_conflict_cycles(
            products, banks, queue_depth=queue_depth
        ) == scalar_conflict_cycles(products, banks, queue_depth=queue_depth)

    def test_paper_provisioning_has_no_stalls(self):
        assert expected_conflict_cycles(16, 32) == 0.0

    def test_zero_products(self):
        assert expected_conflict_cycles(0, 32) == 0.0


# -- synthesis kernels against the implementations they replaced --------------


def reference_smooth(field, radius):
    """The cumsum box filter ``_smooth`` used before it wrote over its input."""
    if radius <= 0:
        return field
    size = 2 * radius + 1
    padded = np.pad(field, ((0, 0), (radius, radius), (radius, radius)), mode="edge")
    np.cumsum(padded, axis=1, out=padded)
    vert = padded[:, size - 1 :, :]
    vert[:, 1:, :] -= padded[:, : -size, :]
    np.cumsum(vert, axis=2, out=vert)
    horiz = vert[:, :, size - 1 :]
    horiz[:, :, 1:] -= vert[:, :, : -size]
    horiz /= size * size
    return horiz


def reference_integral_image(mask):
    """The int64 integral image, rows first, both kernels used to build."""
    padded = np.zeros(
        (mask.shape[0], mask.shape[1] + 1, mask.shape[2] + 1), dtype=np.int64
    )
    inner = padded[:, 1:, 1:]
    np.cumsum(mask, axis=1, dtype=np.int64, out=inner)
    np.cumsum(inner, axis=2, out=inner)
    return padded


SIZES = st.one_of(
    st.integers(min_value=1, max_value=3000),
    st.tuples(*[st.integers(min_value=1, max_value=12)] * 3),
)


class TestFillKernelDraws:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), size=SIZES)
    @settings(max_examples=60, deadline=None)
    def test_standard_normal_magnitudes_match_normal(self, seed, size):
        fill, general = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = np.abs(fill.standard_normal(size=size))
        reference = np.abs(general.normal(0.0, 1.0, size=size))
        assert drawn.tobytes() == reference.tobytes()
        assert fill.random() == general.random()

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), size=SIZES)
    @settings(max_examples=60, deadline=None)
    def test_random_matches_uniform(self, seed, size):
        fill, general = np.random.default_rng(seed), np.random.default_rng(seed)
        assert (
            fill.random(size).tobytes() == general.uniform(0.0, 1.0, size).tobytes()
        )
        assert fill.random() == general.random()


def _assert_threshold_matches_quantile(field, q):
    before = field.copy()
    threshold = _quantile_threshold(field, q)
    expected = np.quantile(field, q)
    assert field.tobytes() == before.tobytes()  # the field is not reordered
    assert threshold == expected  # equal up to the sign of a zero
    assert np.array_equal(field > threshold, field > expected)


class TestQuantileThreshold:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        size=st.integers(min_value=1, max_value=2000),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_fields(self, seed, size, q):
        field = np.random.default_rng(seed).standard_normal((1, 1, size))
        _assert_threshold_matches_quantile(field, q)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        size=st.integers(min_value=1, max_value=200),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_tie_heavy_small_integers(self, seed, size, q):
        rng = np.random.default_rng(seed)
        field = rng.integers(-2, 3, size=size).astype(float)
        field[rng.random(size) < 0.2] = -0.0
        _assert_threshold_matches_quantile(field, q)

    @pytest.mark.parametrize("values", [[0.5], [-0.0], [2.0, -1.0], [0.0, -0.0], [3.0, 3.0]])
    @pytest.mark.parametrize("q", [0.0, 0.1, 0.5, 0.62, 0.9999999999, 1.0])
    def test_tiny_fields(self, values, q):
        _assert_threshold_matches_quantile(np.array(values), q)

    def test_synthesis_quantiles(self):
        """The field and quantiles the trio's activation synthesis uses."""
        rng = np.random.default_rng(4)
        for density in (0.2, 0.38, 0.5, 0.77, 0.999):
            field = reference_smooth(rng.standard_normal((6, 15, 15)), 1)
            _assert_threshold_matches_quantile(field, 1.0 - density)


class TestSmoothEquivalence:
    @pytest.mark.parametrize("radius", [0, 1, 2])
    @pytest.mark.parametrize(
        "shape", [(1, 1, 1), (1, 7, 5), (3, 1, 1), (2, 1, 9), (4, 13, 2), (8, 14, 14)]
    )
    def test_bitwise_equal_to_cumsum_filter(self, radius, shape):
        field = np.random.default_rng([*shape, radius]).standard_normal(shape)
        expected = reference_smooth(field.copy(), radius)
        smoothed = _smooth(field, radius)
        assert smoothed.shape == shape
        assert smoothed.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_result_is_written_over_the_draw(self):
        field = np.random.default_rng(0).standard_normal((2, 6, 6))
        assert _smooth(field, 1) is field


class TestIntegralImages:
    @pytest.mark.parametrize("stride", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 9, 7), (2, 23, 23), (5, 4, 11)])
    def test_int32_phase_images_match_int64_reference(self, stride, shape):
        mask = np.random.default_rng(stride).random(shape) < 0.45
        images = phase_integral_images(mask, stride)
        assert len(images) == stride * stride
        for py in range(stride):
            for px in range(stride):
                image = images[py * stride + px]
                assert image.dtype == np.int32
                assert np.array_equal(
                    image, reference_integral_image(mask[:, py::stride, px::stride])
                )

    def test_float_operands_are_masked(self):
        activations = np.random.default_rng(1).standard_normal((3, 8, 8))
        activations[activations < 0.2] = 0.0
        for image, reference in zip(
            phase_integral_images(activations, 2), phase_integral_images(activations != 0, 2)
        ):
            assert np.array_equal(image, reference)

    @pytest.mark.parametrize("shape", SHAPES, ids=[s[0] for s in SHAPES])
    def test_public_counts_stay_int64(self, shape):
        _, c, k, h, w, f, stride, pad, num_pes = shape
        spec = ConvLayerSpec("vec", c, k, h, w, f, f, stride=stride, padding=pad)
        plan = plan_layer(spec, num_pes=num_pes, group_size=8)
        weights, activations = make_workload(spec, 0.4, 0.5, seed=3)
        for counts in (
            activation_phase_nonzeros(activations, plan, stride, pad),
            weight_phase_nonzeros(weights, 8, stride, pad),
        ):
            assert counts.dtype == np.int64


LAYER_SHAPES = [
    # (name, C, K, H, W, filter, stride, padding, groups)
    ("same_padded", 8, 16, 14, 14, 3, 1, 1, 1),
    ("strided", 3, 8, 23, 23, 5, 2, 0, 1),
    ("stride4_conv1", 3, 12, 27, 27, 11, 4, 0, 1),
    ("grouped", 8, 12, 9, 9, 3, 1, 1, 2),
    ("pointwise_stride2", 16, 8, 10, 10, 1, 2, 0, 1),
]


@pytest.mark.parametrize("shape", LAYER_SHAPES, ids=[s[0] for s in LAYER_SHAPES])
def test_simulate_layer_on_shared_masks_matches_float_models(shape):
    """The masks and integral images a trio simulation shares change no bit."""
    _, c, k, h, w, f, stride, pad, groups = shape
    spec = ConvLayerSpec(
        "shared", c, k, h, w, f, f, stride=stride, padding=pad, groups=groups
    )
    handle = make_handle(spec, 0.35, 0.45, seed=5)
    weights, activations = recipe_workload(handle)
    simulation = trio_simulation(handle)
    reference = simulate_layer_cycles(spec, weights, activations, SCNN_CONFIG)
    products = nonzero_multiplies(spec, weights, activations)
    assert simulation.scnn == ArchLayerResult(
        architecture="SCNN",
        layer=spec.name,
        cycles=reference.cycles,
        operations=reference.products,
        multiplier_utilization=reference.multiplier_utilization,
        idle_fraction=reference.idle_fraction,
        weight_vector_fetches=reference.weight_vector_fetches,
        valid_products=products,
        conflict_stall_cycles=reference.conflict_stall_cycles,
    )
    weight_mask, activation_mask = weights != 0, activations != 0
    assert nonzero_multiplies(
        spec,
        weight_mask,
        activation_mask,
        integrals=phase_integral_images(activation_mask, stride),
    ) == products
    assert simulation.oracle_cycles == oracle_cycles(products, SCNN_CONFIG)


# -- peak memory on the trio's largest activation tensor ----------------------


def _peak_bytes(function, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        function(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Synthesis and simulation allocate no full-size temporary beyond their own.

    VGG conv1_2's input is a 64 x 224 x 224 float64 tensor (25.7 MB).
    Activation synthesis holds the magnitudes, the noise field written over
    by its box filter, the filter's edge-padded buffer, and then the
    threshold's partition copy: about three tensors.  The layer task on a
    recipe handle draws the magnitudes into the buffer the field then takes,
    so it holds about two.  The trio simulation of a workload whose tensors
    are in memory holds bool masks and int32 integral images: about two
    thirds of one.  Another float buffer or an int64 image would cross these
    bounds.
    """

    @pytest.fixture(scope="class")
    def conv1_2(self):
        network = get_network("vggnet")
        index, spec = next(
            (i, layer) for i, layer in enumerate(network.layers)
            if layer.name.endswith("conv1_2")
        )
        return index, spec, network_sparsity(network)[spec.name]

    def test_generate_activations_peak(self, conv1_2):
        index, spec, target = conv1_2
        tensor = spec.input_activation_count * 8
        peak = _peak_bytes(
            generate_activations,
            spec,
            target.activation_density,
            np.random.default_rng([0, index]),
        )
        assert peak <= 3.25 * tensor

    def test_trio_simulation_peak_on_raw_tensors(self, conv1_2):
        index, spec, target = conv1_2
        tensor = spec.input_activation_count * 8
        weights, activations = recipe_workload(
            WorkloadHandle("vggnet", 0, index, spec, target)
        )
        trio = [get_architecture(name) for name in TRIO]

        def simulate_trio():
            operands = LayerOperands(spec, weights != 0, activations != 0)
            return [simulate_layer(spec, arch.config, operands) for arch in trio]

        assert _peak_bytes(simulate_trio) <= 1.0 * tensor

    def test_layer_task_peak_on_a_recipe_handle(self, conv1_2):
        """Masks straight from the draws: no float operand tensor is kept."""
        index, spec, target = conv1_2
        tensor = spec.input_activation_count * 8
        handle = WorkloadHandle("vggnet", 0, index, spec, target)
        trio = [get_architecture(name) for name in TRIO]
        assert _peak_bytes(_layer_task, (handle, trio)) <= 2.25 * tensor
