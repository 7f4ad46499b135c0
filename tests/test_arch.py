"""Tests for the architecture subsystem (repro.arch).

Covers the registry catalogue and its validation errors, the declarative
specs, the one model dispatch (``simulate_layer``), and the engine's
cross-architecture grid.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.arch import (
    DCNN_CONFIG,
    SCNN_CONFIG,
    AcceleratorConfig,
    ArchitectureRegistry,
    ArchitectureSpec,
    available_architectures,
    compare_network,
    get_architecture,
    resolve_config,
)
from repro.arch.adapters import (
    LayerOperands,
    _reads_operands,
    effective_densities,
    simulate_layer,
)
from repro.arch.compare import ArchLayerMetrics, NetworkComparison
from repro.engine import SimulationEngine
from repro.nn.layers import ConvLayerSpec
from repro.scnn.cycles import simulate_layer_cycles
from repro.scnn.dcnn import simulate_dcnn_layer
from repro.scnn.oracle import nonzero_multiplies

from _helpers import make_handle


@pytest.fixture
def workload():
    spec = ConvLayerSpec("conv", 32, 32, 14, 14, 3, 3, padding=1)
    return make_handle(spec, weight_density=0.4, activation_density=0.5)


@pytest.fixture
def masks(workload):
    """The workload's (weights, activations) non-zero masks."""
    return workload.masks()


@pytest.fixture
def operands(workload, masks):
    return LayerOperands(workload.spec, *masks)


class TestRegistry:
    def test_catalogue_covers_the_paper(self):
        names = available_architectures()
        assert {"SCNN", "DCNN", "DCNN-opt", "SCNN-SparseW", "SCNN-SparseA"} <= set(
            names
        )
        # Section VI-C granularity variants ride along.
        assert {"SCNN-16PE", "SCNN-4PE"} <= set(names)

    def test_canonical_configs_are_the_registry_objects(self):
        """The module constants are the very objects the registry serves."""
        assert get_architecture("SCNN").config is SCNN_CONFIG
        assert get_architecture("DCNN").config is DCNN_CONFIG

    def test_unknown_architecture_lists_known_ones(self):
        with pytest.raises(KeyError) as excinfo:
            get_architecture("TPU")
        message = str(excinfo.value)
        assert "unknown architecture 'TPU'" in message
        for name in available_architectures():
            assert repr(name) in message

    def test_duplicate_registration_rejected(self):
        registry = ArchitectureRegistry()
        spec = get_architecture("SCNN")
        registry.register(spec)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(spec)

    def test_registering_a_variant_is_a_data_change(self):
        registry = ArchitectureRegistry()
        config = replace(SCNN_CONFIG, name="SCNN-A64", accumulator_banks=64)
        spec = ArchitectureSpec(config)
        registry.register(spec)
        assert "SCNN-A64" in registry
        assert registry.get("SCNN-A64").config.accumulator_banks == 64


class TestSpecValidation:
    def test_config_name_required(self):
        with pytest.raises(ValueError, match="non-empty name"):
            AcceleratorConfig(name="", dataflow=SCNN_CONFIG.dataflow)

    def test_spec_name_is_its_config_name(self):
        config = replace(SCNN_CONFIG, name="SCNN-renamed")
        assert ArchitectureSpec(config, description="a copy").name == "SCNN-renamed"

    def test_specs_pickle_round_trip(self):
        spec = get_architecture("SCNN-SparseW")
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestResolveConfig:
    def test_name_resolves_through_registry(self):
        assert resolve_config("DCNN-opt") is get_architecture("DCNN-opt").config

    def test_config_objects_pass_through(self):
        assert resolve_config(SCNN_CONFIG) is SCNN_CONFIG

    def test_unknown_name_lists_catalogue(self):
        with pytest.raises(KeyError, match="registered architectures"):
            resolve_config("Eyeriss")

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="AcceleratorConfig"):
            resolve_config(42)

    def test_simulators_accept_names(self, workload):
        by_name = simulate_dcnn_layer(workload.spec, "DCNN")
        by_config = simulate_dcnn_layer(workload.spec, DCNN_CONFIG)
        assert by_name.cycles == by_config.cycles


class TestAdapters:
    def test_sparse_adapter_matches_core_model_for_scnn(
        self, workload, masks, operands
    ):
        result = simulate_layer(workload.spec, SCNN_CONFIG, operands)
        reference = simulate_layer_cycles(workload.spec, *masks, SCNN_CONFIG)
        assert result.cycles == reference.cycles
        assert result.operations == reference.products
        assert result.weight_vector_fetches == reference.weight_vector_fetches
        assert result.conflict_stall_cycles == reference.conflict_stall_cycles
        assert result.valid_products == nonzero_multiplies(workload.spec, *masks)

    def test_dense_adapter_matches_dcnn_model(self, workload):
        """A dense design that gates nothing reads no operands, so it
        needs no masks and counts no valid products."""
        assert not _reads_operands(DCNN_CONFIG)
        result = simulate_layer(workload.spec, DCNN_CONFIG, None)
        reference = simulate_dcnn_layer(workload.spec, DCNN_CONFIG)
        assert result.cycles == reference.cycles
        assert result.operations == reference.multiplies
        assert result.weight_vector_fetches is None
        assert result.valid_products is None

    def test_gating_dense_adapter_counts_valid_products(self, workload, operands):
        """DCNN-opt gates zero operands: it reads the real masks and shares
        SCNN's count, while its cycles stay DCNN's."""
        config = get_architecture("DCNN-opt").config
        assert _reads_operands(config)
        result = simulate_layer(workload.spec, config, operands)
        scnn = simulate_layer(workload.spec, SCNN_CONFIG, operands)
        assert result.valid_products == scnn.valid_products
        assert result.cycles == simulate_dcnn_layer(workload.spec, DCNN_CONFIG).cycles
        assert "dense_activations" not in vars(operands)

    def test_single_operand_ablations_bracketed_by_scnn_and_dense(
        self, workload, masks, operands
    ):
        """Skipping one operand is slower than SCNN, faster than dense; the
        unskipped operand is observed as an all-True mask."""
        scnn = simulate_layer(workload.spec, SCNN_CONFIG, operands)
        weight_mask, activation_mask = masks
        dense_weights = np.ones_like(weight_mask)
        dense_activations = np.ones_like(activation_mask)
        dense_equivalent = simulate_layer_cycles(
            workload.spec, dense_weights, dense_activations, SCNN_CONFIG
        )
        for name, weights, activations in (
            ("SCNN-SparseW", weight_mask, dense_activations),
            ("SCNN-SparseA", dense_weights, activation_mask),
        ):
            config = get_architecture(name).config
            ablation = simulate_layer(workload.spec, config, operands)
            reference = simulate_layer_cycles(workload.spec, weights, activations, config)
            assert (ablation.cycles, ablation.operations, ablation.valid_products) == (
                reference.cycles,
                reference.products,
                nonzero_multiplies(workload.spec, weights, activations),
            )
            assert scnn.cycles <= ablation.cycles <= dense_equivalent.cycles

    def test_effective_densities_follow_dataflow_flags(self):
        """A sparse dataflow observes an operand it cannot skip fully dense;
        a dense dataflow keeps the real densities, whose gating and DRAM
        compression the event-count model charges itself."""
        assert effective_densities(SCNN_CONFIG, 0.3, 0.4, 0.5) == (0.3, 0.4, 0.5)
        sparse_w = get_architecture("SCNN-SparseW").config
        assert effective_densities(sparse_w, 0.3, 0.4, 0.5) == (0.3, 1.0, 1.0)
        sparse_a = get_architecture("SCNN-SparseA").config
        assert effective_densities(sparse_a, 0.3, 0.4, 0.5) == (1.0, 0.4, 0.5)
        for name in ("DCNN", "DCNN-opt"):
            config = get_architecture(name).config
            assert effective_densities(config, 0.3, 0.4, 0.5) == (0.3, 0.4, 0.5)


class TestEngineArchitectureGrid:
    def test_grid_accepts_names_and_specs(self, workload, masks):
        engine = SimulationEngine(cache_dir=False)
        run = engine.run_architectures(
            [workload], ["SCNN", get_architecture("DCNN")]
        )
        assert [spec.name for spec in run.architectures] == ["SCNN", "DCNN"]
        scnn = run.column("SCNN")[0]
        assert scnn.cycles == simulate_layer_cycles(
            workload.spec, *masks, SCNN_CONFIG
        ).cycles
        assert run.column("DCNN")[0].cycles == simulate_dcnn_layer(
            workload.spec, DCNN_CONFIG
        ).cycles

    def test_unknown_column_lists_evaluated_architectures(self, workload):
        engine = SimulationEngine(cache_dir=False)
        run = engine.run_architectures([workload], ["SCNN"])
        with pytest.raises(KeyError) as excinfo:
            run.column("DCNN")
        assert "this run evaluated: 'SCNN'" in str(excinfo.value)

    def test_grid_results_served_from_cache(self, workload, tmp_path):
        engine = SimulationEngine(cache_dir=tmp_path)
        first = engine.run_architectures([workload], ["SCNN-SparseW"])
        warm = SimulationEngine(cache_dir=tmp_path)
        second = warm.run_architectures([workload], ["SCNN-SparseW"])
        assert warm.disk_cache.hits == 1
        assert first.column("SCNN-SparseW")[0] == second.column("SCNN-SparseW")[0]


def _metrics(architecture, layer, module, cycles, energy):
    return ArchLayerMetrics(
        architecture, layer, module, cycles, operations=0,
        multiplier_utilization=0.0, idle_fraction=0.0, energy_total=energy,
    )


@pytest.fixture
def toy_comparison():
    """Three layers in two modules; the back module's baseline energy is zero."""
    return NetworkComparison(
        network="toy",
        seed=0,
        baseline="DCNN",
        architectures=["DCNN", "SCNN"],
        layers={
            "DCNN": [
                _metrics("DCNN", "a", "front", 100, 10.0),
                _metrics("DCNN", "b", "front", 50, 5.0),
                _metrics("DCNN", "c", "back", 30, 0.0),
            ],
            "SCNN": [
                _metrics("SCNN", "a", "front", 40, 4.0),
                _metrics("SCNN", "b", "front", 10, 2.0),
                _metrics("SCNN", "c", "back", 0, 3.0),
            ],
        },
        oracle_cycles=[20, 5, 1],
    )


class TestComparisonModules:
    def test_module_cycles_sum_the_modules_layers(self, toy_comparison):
        assert toy_comparison.modules() == ["front", "back"]
        assert toy_comparison.module_cycles("front", "DCNN") == 150
        assert toy_comparison.module_cycles("front", "SCNN") == 50
        assert toy_comparison.module_cycles("back", "SCNN") == 0
        for name in ("DCNN", "SCNN"):
            assert sum(
                toy_comparison.module_cycles(module, name)
                for module in toy_comparison.modules()
            ) == toy_comparison.total_cycles(name)
        assert toy_comparison.module_speedup("front", "SCNN") == 3.0
        assert toy_comparison.module_speedup("back", "SCNN") == float("inf")

    def test_module_energy_ratio(self, toy_comparison):
        assert toy_comparison.module_energy_ratio("front", "SCNN") == 6.0 / 15.0
        assert toy_comparison.module_energy_ratio("front", "DCNN") == 1.0
        # A zero-energy baseline module reports 0.0, the Figure 10 guard.
        assert toy_comparison.module_energy_ratio("back", "SCNN") == 0.0
        with pytest.raises(KeyError, match="this comparison evaluated: 'DCNN', 'SCNN'"):
            toy_comparison.module_energy_ratio("front", "DCNN-opt")


class TestCompareValidation:
    def test_unknown_architecture_fails_fast(self):
        engine = SimulationEngine(cache_dir=False)
        with pytest.raises(KeyError, match="unknown architecture 'NPU'"):
            compare_network("alexnet", ["NPU"], engine=engine)
