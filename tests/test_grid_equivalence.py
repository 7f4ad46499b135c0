"""The grid kernels against the golden fixture and the naive pmf reference.

Every test here compares :mod:`repro.grid` output with exact ``==`` (by
``repr``) — no tolerances — against ``tests/golden/analytical_models.json``,
over seeded shapes that include stride > 1, groups > 1, degenerate 1x1
layers and near-zero densities.  ``tests/test_analytical_golden.py`` checks
the one-layer entry points against the same values.

:func:`_expected_vector_count` is the naive one-triple pmf kernel; it stays
the live reference for the deduplication, int64 key packing and memo of
:func:`repro.grid.expected_vector_counts`.
"""

import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from _helpers import random_layer_specs
from repro.arch.registry import default_registry, get_architecture, resolve_config
from repro.dataflow.tiling import plan_layer
from repro.grid import (
    ENERGY_COMPONENTS,
    clear_solved_triples,
    config_layer_stack,
    dense_cycle_grid,
    density_milli,
    energy_grid,
    evaluate_grid,
    expected_vector_counts,
    scnn_cycle_grid,
)
from repro.grid.binomial import _log_comb
from repro.nn.layers import ConvLayerSpec
from repro.timeloop.dse import default_candidates
from repro.timeloop.model import estimate_scnn_layer
from repro.workloads.registry import available_workloads, resolve_network

GOLDEN = Path(__file__).resolve().parent / "golden" / "analytical_models.json"

#: (weight, activation) density axes of the SCNN cycle-grid check.
SCNN_DENSITIES = (
    np.array([0.0003, 0.15, 0.62, 1.0]),
    np.array([0.31, 0.0004, 0.88, 1.0]),
)
#: (weight, activation, output) density axes of the energy-grid check.
ENERGY_DENSITIES = (
    np.array([0.001, 0.4, 1.0]),
    np.array([0.25, 0.0002, 1.0]),
    np.array([0.3, 0.5, 1.0]),
)
#: Shared weight density and activation axis of the whole-grid check.
EVALUATE_WEIGHT_DENSITY = 0.42
EVALUATE_DENSITIES = np.array([0.0001, 0.35, 0.9, 1.0])
#: (weight, activation) densities of the forced-SCNN-model check.
FORCED_DENSITIES = (0.4, 0.35)
#: Layers, then (weight, activation, output) densities, of the evaluator-energy
#: check: scalars, 1-D density axes and seeded ``(layers, points)`` grids.
EVALUATOR_ENERGY_LAYERS = 6
EVALUATOR_ENERGY_DENSITIES = {
    "scalar": (0.37, 0.52, None),
    "axis": (0.42, np.array([0.0004, 0.3, 0.75, 1.0]), np.array([0.2, 0.5, 0.9, 1.0])),
    "grid": tuple(
        np.random.default_rng(31).uniform(0.0005, 1.0, (3, EVALUATOR_ENERGY_LAYERS, 3))
    ),
}


def vector_count_triples():
    """Seeded (elements, density_milli, width) triples, with 0 and > 1000 milli."""
    rng = np.random.default_rng(7)
    elements = rng.integers(0, 900, size=300)
    milli = rng.integers(0, 1100, size=300)
    width = rng.integers(1, 9, size=300)
    return elements, milli, width


def energy_cycles():
    """Seeded layer shapes and integer cycle grid of the energy-grid check."""
    rng = np.random.default_rng(17)
    specs = random_layer_specs(rng)
    cycles = rng.integers(1, 10_000_000, size=(len(specs), len(ENERGY_DENSITIES[0])))
    return specs, cycles


@lru_cache(maxsize=4096)
def _expected_vector_count(elements: int, density_milli: int, width: int) -> float:
    """E[ceil(X / width)] where X ~ Binomial(elements, density).

    The expectation of the *ceiling* exceeds the ceiling of the expectation —
    exactly the fragmentation effect that keeps the multiplier array from
    reaching full occupancy on sparse blocks — so it is computed exactly from
    the binomial pmf.  ``density_milli`` is the density in thousandths so the
    cache key stays hashable and small.
    """
    if elements <= 0:
        return 0.0
    density = density_milli / 1000.0
    if density <= 0.0:
        return 0.0
    if density >= 1.0:
        return float(-(-elements // width))
    counts = np.arange(elements + 1)
    # Binomial pmf via logarithms for numerical stability on large blocks.
    log_pmf = (
        _log_comb(elements, counts)
        + counts * np.log(density)
        + (elements - counts) * np.log1p(-density)
    )
    pmf = np.exp(log_pmf)
    pmf /= pmf.sum()
    return float((pmf * np.ceil(counts / width)).sum())


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())["grid_equivalence"]


def _fields(grid, *index):
    return [
        repr(float(grid.cycles[index])),
        repr(float(grid.products[index])),
        repr(float(grid.multiplier_utilization[index])),
        repr(float(grid.idle_fraction[index])),
    ]


class TestExpectedVectorCounts:
    def test_matches_golden_over_random_triples(self, golden):
        got = expected_vector_counts(*vector_count_triples())
        assert [repr(float(value)) for value in got] == golden["expected_vector_counts"]

    def test_memo_and_dedup_match_naive_pmf(self):
        elements, milli, width = vector_count_triples()
        reference = [
            _expected_vector_count(int(e), int(m), int(w))
            for e, m, w in zip(elements, milli, width)
        ]
        clear_solved_triples()
        cold = expected_vector_counts(elements, milli, width)
        warm = expected_vector_counts(elements, milli, width)
        # Another grouping: every triple twice, reversed, half of them memoised.
        clear_solved_triples()
        expected_vector_counts(elements[::2], milli[::2], width[::2])
        doubled = expected_vector_counts(
            np.concatenate([elements, elements])[::-1],
            np.concatenate([milli, milli])[::-1],
            np.concatenate([width, width])[::-1],
        )
        assert cold.tolist() == reference
        assert warm.tolist() == reference
        assert doubled[::-1].tolist() == reference + reference

    def test_broadcasts_like_numpy(self, golden):
        out = expected_vector_counts(
            np.array([[64], [128]]), np.array([100, 500, 1000]), 4
        )
        assert out.shape == (2, 3)
        assert repr(float(out[1, 2])) == golden["expected_vector_count_128_1000_4"]
        assert out[0, 1] == _expected_vector_count(64, 500, 4)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError, match="width"):
            expected_vector_counts(64, 500, 0)


class TestLogComb:
    @staticmethod
    def _assert_lgamma_bits(n: int) -> None:
        counts = np.arange(n + 1)
        expected = np.array(
            [
                math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                for k in range(n + 1)
            ]
        )
        got = _log_comb(n, counts)
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes(), n

    def test_small_blocks_equal_math_lgamma_bitwise(self):
        for n in range(257):
            self._assert_lgamma_bits(n)

    def test_every_registered_block_equals_math_lgamma_bitwise(self):
        # Up to the largest block any registered workload x architecture has.
        sizes = set()
        for workload in available_workloads():
            specs = tuple(resolve_network(workload).layers)
            for name in default_registry().names():
                stack = config_layer_stack(specs, resolve_config(name))
                sizes.update(stack.phase_sizes.ravel().tolist())
                sizes.update(stack.weight_phase_block.tolist())
        for n in sorted(sizes):
            self._assert_lgamma_bits(int(n))


class TestDensityMilliRegression:
    def test_near_zero_density_floors_at_one_milli(self):
        # Regression: 1e-4 used to round to 0 milli, yielding zero expected
        # fetches — zero cycles for real work.
        assert density_milli(1e-4) == 1
        assert density_milli(0.0004) == 1
        assert density_milli(0.0016) == 2

    def test_near_zero_density_yields_positive_cycles(self):
        spec = ConvLayerSpec("tiny-density", 64, 64, 14, 14, 3, 3, padding=1)
        estimate = estimate_scnn_layer(
            spec, weight_density=1e-4, activation_density=1e-4
        )
        assert estimate.cycles > 0


class TestCycleGridGolden:
    @pytest.mark.parametrize("config_name", ["SCNN", "SCNN-16PE", "SCNN-SparseW"])
    def test_scnn_grid_matches_golden(self, golden, config_name):
        specs = random_layer_specs(np.random.default_rng(11))
        wd, ad = SCNN_DENSITIES
        grid = scnn_cycle_grid(
            specs,
            resolve_config(config_name),
            np.broadcast_to(wd, (len(specs), len(wd))),
            np.broadcast_to(ad, (len(specs), len(ad))),
        )
        assert [
            [_fields(grid, s, d) for d in range(len(wd))] for s in range(len(specs))
        ] == golden["scnn_cycle_grid"][config_name]

    @pytest.mark.parametrize("config_name", ["DCNN", "DCNN-opt"])
    def test_dense_grid_matches_golden(self, golden, config_name):
        specs = random_layer_specs(np.random.default_rng(13))
        grid = dense_cycle_grid(specs, config_name)
        assert [
            _fields(grid, s) for s in range(len(specs))
        ] == golden["dense_cycle_grid"][config_name]

    def test_rejects_out_of_range_density(self):
        specs = random_layer_specs(np.random.default_rng(0), count=3)
        with pytest.raises(ValueError, match="weight_density"):
            scnn_cycle_grid(specs, "SCNN", np.array([[0.0]]), np.array([[0.5]]))


class TestEnergyGridGolden:
    def test_every_registered_config_matches_golden(self, golden):
        specs, cycles = energy_cycles()
        wd, ad, od = ENERGY_DENSITIES
        # The fixture's architectures: examples may register more at runtime.
        for name, expected in golden["energy_grid"].items():
            grids = energy_grid(
                specs,
                resolve_config(name),
                weight_density=np.broadcast_to(wd, cycles.shape),
                activation_density=np.broadcast_to(ad, cycles.shape),
                output_density=np.broadcast_to(od, cycles.shape),
                cycles=cycles,
            )
            got = [
                [
                    {key: repr(float(value[s, d])) for key, value in grids.items()}
                    for d in range(len(wd))
                ]
                for s in range(len(specs))
            ]
            assert got == expected, name


def _per_pe_phase_sizes(spec, config):
    """Each PE's per-phase activation block size, straight from the tiling plan."""
    pe_rows, pe_cols = config.pe_grid
    plan = plan_layer(
        spec,
        num_pes=config.num_pes,
        group_size=config.output_channel_group,
        pe_rows=pe_rows,
        pe_cols=pe_cols,
    )
    phases = spec.stride * spec.stride
    return [max(tile.size // phases, int(tile.size > 0)) for tile in plan.input_tiles]


def _registered_stack_configs():
    """Every registered architecture's config, then the default DSE candidates."""
    configs = [resolve_config(name) for name in default_registry().names()]
    return configs + default_candidates(get_architecture("SCNN").config)


class TestDistinctBlockSizes:
    def test_gathered_table_equals_per_pe_sizes_everywhere(self):
        for workload in available_workloads():
            specs = tuple(resolve_network(workload).layers)
            for config in _registered_stack_configs():
                stack = config_layer_stack(specs, config)
                table = stack.distinct_phase_sizes
                index = stack.phase_size_index
                assert index.dtype == np.min_scalar_type(table.shape[1] - 1)
                gathered = np.take_along_axis(table, index, axis=1)
                reference = [_per_pe_phase_sizes(spec, config) for spec in specs]
                assert gathered.tolist() == reference, (workload, config.name)
                assert stack.phase_sizes.tolist() == reference, (workload, config.name)
                for row, sizes in zip(table.tolist(), reference):
                    distinct = sorted(set(sizes))
                    assert row == distinct + [0] * (len(row) - len(distinct))

    def test_activation_kernel_sees_distinct_sizes_only(self, monkeypatch):
        import repro.grid.evaluate as evaluate

        shapes = []
        kernel = evaluate.expected_vector_counts

        def spy(elements, density_milli, width):
            shapes.append(np.broadcast(elements, density_milli, width).shape)
            return kernel(elements, density_milli, width)

        monkeypatch.setattr(evaluate, "expected_vector_counts", spy)
        specs = tuple(resolve_network("googlenet").layers)
        config = resolve_config("SCNN")
        points = 5
        densities = np.broadcast_to(np.linspace(0.1, 0.9, points), (len(specs), points))
        scnn_cycle_grid(specs, config, densities, densities)
        stack = config_layer_stack(specs, config)
        widest = max(len(set(row)) for row in stack.phase_sizes.tolist())
        (activation_shape,) = [shape for shape in shapes if len(shape) == 3]
        assert len(specs) * points * widest < len(specs) * points * stack.num_pes
        assert math.prod(activation_shape) <= len(specs) * points * widest


class TestEvaluatorEnergy:
    @pytest.mark.parametrize("config_name", ["SCNN", "DCNN-opt"])
    @pytest.mark.parametrize("case", sorted(EVALUATOR_ENERGY_DENSITIES))
    def test_energy_equals_energy_grid_bitwise(self, config_name, case):
        specs = random_layer_specs(
            np.random.default_rng(29), count=EVALUATOR_ENERGY_LAYERS
        )
        wd, ad, od = EVALUATOR_ENERGY_DENSITIES[case]
        grid = evaluate_grid(
            specs,
            [config_name],
            weight_density=wd,
            activation_density=ad,
            output_density=od,
        )
        expected = energy_grid(
            specs,
            config_name,
            weight_density=grid.weight_density,
            activation_density=grid.activation_density,
            output_density=grid.output_density,
            cycles=grid.cycles[0].astype(np.int64),
        )
        assert list(expected) == [*ENERGY_COMPONENTS, "total"]
        assert grid.energy[0].tobytes() == expected["total"].tobytes()
        for name in ENERGY_COMPONENTS:
            got = grid.energy_components[name][0]
            assert got.tobytes() == expected[name].tobytes(), name


class TestEvaluateGrid:
    def test_full_grid_matches_golden_cell_for_cell(self, golden):
        specs = random_layer_specs(np.random.default_rng(19), count=5)
        configs = ["SCNN", "DCNN", "DCNN-opt"]
        grid = evaluate_grid(
            specs,
            configs,
            weight_density=EVALUATE_WEIGHT_DENSITY,
            activation_density=EVALUATE_DENSITIES,
            model="auto",
        )
        for c, name in enumerate(configs):
            got = [
                [
                    {
                        "estimate": repr(grid.estimate(c, s, d)),
                        "energy": repr(float(grid.energy[c, s, d])),
                    }
                    for d in range(len(EVALUATE_DENSITIES))
                ]
                for s in range(len(specs))
            ]
            assert got == golden["evaluate_grid"][name], name

    def test_forced_scnn_model_covers_dense_configs(self, golden):
        # The DSE convention: the analytical SCNN model for every candidate.
        specs = random_layer_specs(np.random.default_rng(23), count=3)
        wd, ad = FORCED_DENSITIES
        grid = evaluate_grid(
            specs, ["DCNN"], weight_density=wd, activation_density=ad, model="scnn"
        )
        assert [
            repr(grid.estimate(0, s, 0)) for s in range(len(specs))
        ] == golden["forced_scnn_model"]

    def test_rejects_unknown_model(self):
        specs = random_layer_specs(np.random.default_rng(0), count=2)
        with pytest.raises(ValueError, match="model"):
            evaluate_grid(
                specs, ["SCNN"], weight_density=0.5, activation_density=0.5,
                model="magic",
            )

    def test_named_lookup_errors_list_catalogue(self):
        specs = random_layer_specs(np.random.default_rng(0), count=2)
        grid = evaluate_grid(
            specs, ["SCNN"], weight_density=0.5, activation_density=0.5
        )
        with pytest.raises(KeyError, match="SCNN"):
            grid.config_index("NOPE")
        with pytest.raises(KeyError, match="pt1x1"):
            grid.layer_index("NOPE")
