"""Tests for the workload subsystem (repro.workloads).

Covers the registry catalogue and its validation errors, the declarative
specs, the synthetic generators (including degenerate shapes), the
density-profile library (including the zero-density floor), and the
shimmed ``repro.nn.networks`` entry points.
"""

import json

import numpy as np
import pytest

from repro.arch import SCNN_CONFIG
from repro.engine import SimulationEngine
from repro.nn.densities import LayerSparsity, network_sparsity
from repro.nn.inference import build_layer_workload
from repro.nn.networks import available_networks, get_network
from repro.scnn.cycles import simulate_layer_cycles
from repro.workloads import (
    DensityProfile,
    WorkloadRegistry,
    WorkloadSpec,
    available_profiles,
    available_workloads,
    bottleneck_stack,
    decay_profile,
    default_registry,
    get_profile,
    get_workload,
    measured_profile,
    plain_cnn,
    register_profile,
    resnet_style,
    resolve_network,
    uniform_profile,
    wide_shallow,
)
from repro.workloads.profiles import MIN_DENSITY, clamp_density, unregister_profile


def tiny_spec(name="tiny"):
    return plain_cnn(depth=1, channels=2, extent=4, name=name)


class TestRegistry:
    def test_catalogue_covers_paper_and_synthetics(self):
        names = available_workloads()
        assert {"alexnet", "googlenet", "googlenet-stem", "vggnet"} <= set(names)
        assert {
            "plain-cnn-8", "resnet-style-13", "wide-shallow-3",
            "bottleneck-stack-4",
        } <= set(names)

    def test_duplicate_registration_rejected(self):
        registry = WorkloadRegistry()
        spec = WorkloadSpec(name="dup", builder=tiny_spec, density_profile="dense")
        registry.register(spec)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(spec)
        # Case-folded names collide too: the lookup is case-insensitive.
        with pytest.raises(ValueError, match="already registered"):
            registry.register(
                WorkloadSpec(name="DUP", builder=tiny_spec, density_profile="dense")
            )

    def test_unknown_name_lists_the_catalogue(self):
        with pytest.raises(KeyError) as excinfo:
            get_workload("lenet")
        message = str(excinfo.value)
        assert "registered workloads" in message
        for name in ("alexnet", "plain-cnn-8"):
            assert name in message

    def test_get_is_case_insensitive(self):
        assert get_workload("AlexNet").name == "alexnet"
        assert get_workload(" VGGNET ").name == "vggnet"

    def test_describe_is_json_serializable(self):
        catalogue = default_registry().describe()
        json.dumps(catalogue)
        by_name = {entry["name"]: entry for entry in catalogue}
        assert by_name["alexnet"]["conv_layers"] == 5
        assert by_name["alexnet"]["source"] == "paper"
        assert by_name["plain-cnn-8"]["density_profile"] == "uniform-50"

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="non-empty name"):
            WorkloadSpec(name="", builder=tiny_spec)
        with pytest.raises(TypeError, match="callable"):
            WorkloadSpec(name="x", builder="not-callable")
        with pytest.raises(ValueError, match="density profile"):
            WorkloadSpec(name="x", builder=tiny_spec, density_profile="")

    def test_resolve_network_passthrough_and_type_error(self):
        network = tiny_spec()
        assert resolve_network(network) is network
        assert resolve_network("alexnet").name == "AlexNet"
        with pytest.raises(TypeError, match="registered workload name"):
            resolve_network(42)

    def test_concurrent_registration_and_catalogue_reads(self):
        """Registering while other threads validate must never blow up.

        This is the service's real shape: HTTP handler threads resolving
        choices against the registry while a runtime registration mutates
        it.
        """
        import threading

        registry = default_registry()
        errors = []

        def reader():
            try:
                for _ in range(300):
                    names = available_workloads()
                    assert "alexnet" in names
                    list(registry)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def writer():
            try:
                for index in range(100):
                    name = f"churn-{index}"
                    registry.register(
                        WorkloadSpec(name=name, builder=tiny_spec,
                                     density_profile="dense")
                    )
                    registry.unregister(name)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert not [n for n in available_workloads() if n.startswith("churn-")]

    def test_unregister_makes_the_name_unknown_again(self):
        registry = default_registry()
        registry.register(
            WorkloadSpec(name="ephemeral", builder=tiny_spec,
                         density_profile="dense")
        )
        assert "ephemeral" in registry
        registry.unregister("ephemeral")
        assert "ephemeral" not in registry
        with pytest.raises(KeyError):
            get_workload("ephemeral")


class TestNnShims:
    def test_available_networks_is_a_live_sorted_view(self):
        names = available_networks()
        assert names == sorted(names)
        assert {"alexnet", "googlenet", "googlenet-stem", "vggnet"} <= set(names)
        registry = default_registry()
        registry.register(
            WorkloadSpec(name="shim-net", builder=tiny_spec,
                         density_profile="dense")
        )
        try:
            assert "shim-net" in available_networks()
            assert get_network("shim-net").name == "tiny"
        finally:
            registry.unregister("shim-net")
        assert "shim-net" not in available_networks()

    def test_get_network_unknown_name_lists_catalogue(self):
        with pytest.raises(KeyError, match="registered workloads"):
            get_network("lenet")


class TestSyntheticGenerators:
    def test_plain_cnn_chains_extents(self):
        network = plain_cnn(depth=3, channels=8, extent=16, kernel=3)
        assert len(network) == 3
        for earlier, later in zip(network.layers, network.layers[1:]):
            assert later.input_height == earlier.output_height
            assert later.in_channels == earlier.out_channels

    def test_resnet_style_counts_and_pyramid(self):
        network = resnet_style(blocks=(2, 2, 2), base_channels=16, extent=32)
        assert len(network) == 1 + 2 * 6
        assert network.layers[0].module == "stem"
        # Channels double and extent halves entering stages 2 and 3.
        stage2_first = network.layer("stage2/block1a")
        assert stage2_first.stride == 2
        assert stage2_first.out_channels == 32
        last = network.layers[-1]
        assert last.out_channels == 64
        assert last.input_height == 8

    def test_bottleneck_stack_mixes_unit_and_3x3_filters(self):
        network = bottleneck_stack(blocks=2, channels=8, extent=10, expansion=4)
        assert len(network) == 6
        kernels = [(s.filter_height, s.filter_width) for s in network.layers]
        assert kernels == [(1, 1), (3, 3), (1, 1)] * 2
        # Block i's expand output feeds block i+1's reduce.
        assert network.layer("block2/reduce").in_channels == 32

    def test_wide_shallow_shape(self):
        network = wide_shallow(layers=2, channels=64, extent=14)
        assert len(network) == 2
        assert network.layers[1].in_channels == 64

    def test_degenerate_1x1_kernel_single_channel(self):
        """The smallest expressible networks still construct and simulate."""
        network = plain_cnn(
            depth=2, channels=1, extent=5, kernel=1, in_channels=1
        )
        assert [spec.weight_shape for spec in network.layers] == [
            (1, 1, 1, 1), (1, 1, 1, 1),
        ]
        engine = SimulationEngine(cache_dir=False)
        simulation = engine.run_network(
            network, sparsity={s.name: LayerSparsity(1.0, 1.0) for s in network}
        )
        assert simulation.total_cycles("SCNN") > 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="depth must be positive"):
            plain_cnn(depth=0)
        with pytest.raises(ValueError, match="at least one stage"):
            resnet_style(blocks=())
        with pytest.raises(ValueError, match="must be positive"):
            bottleneck_stack(expansion=0)


class TestDensityProfiles:
    def test_builtin_catalogue(self):
        assert {"measured", "dense", "uniform-50", "decay-90-30"} <= set(
            available_profiles()
        )

    def test_uniform_profile_bounds(self):
        with pytest.raises(ValueError, match=r"in \(0, 1\]"):
            uniform_profile(0.0)
        with pytest.raises(ValueError, match=r"in \(0, 1\]"):
            uniform_profile(1.5)
        profile = uniform_profile(0.4, activation_density=0.8)
        table = profile.table(tiny_spec())
        assert all(
            entry == LayerSparsity(0.4, 0.8) for entry in table.values()
        )

    def test_uniform_profile_names(self):
        names = [uniform_profile(d).name for d in (0.9, 0.7, 0.5, 0.3, 0.1)]
        assert names == [
            "uniform-90", "uniform-70", "uniform-50", "uniform-30", "uniform-10",
        ]
        assert uniform_profile(0.3, activation_density=0.6).name == "uniform-w30-a60"
        assert uniform_profile(0.3, name="custom").name == "custom"

    def test_clamp_density_band(self):
        assert clamp_density(0.0) == MIN_DENSITY
        assert clamp_density(-1.0) == MIN_DENSITY
        assert clamp_density(0.37) == 0.37
        assert clamp_density(1.0) == 1.0
        assert clamp_density(2.5) == 1.0

    def test_measured_profile_is_the_calibration(self):
        profile = measured_profile()
        assert profile.name == "measured"
        assert get_profile("measured") == profile
        for name in ("alexnet", "googlenet", "vggnet"):
            network = get_network(name)
            assert profile.table(network) == network_sparsity(network)

    def test_decay_profile_clamps_zero_to_floor(self):
        """A zero-density endpoint degrades to the representable floor."""
        profile = decay_profile(0.5, 0.0)
        network = plain_cnn(depth=4, channels=2, extent=4)
        table = profile.table(network)
        densities = [table[s.name].weight_density for s in network.layers]
        assert densities[0] == 0.5
        assert densities[-1] == MIN_DENSITY
        assert densities == sorted(densities, reverse=True)

    def test_profile_must_cover_every_layer(self):
        profile = DensityProfile(
            name="partial", fn=lambda network: {}, description=""
        )
        with pytest.raises(KeyError, match="assigned no density"):
            profile.table(tiny_spec())

    def test_register_get_unregister_roundtrip(self):
        profile = uniform_profile(0.33)
        register_profile(profile)
        try:
            assert get_profile("uniform-33") is profile
            with pytest.raises(ValueError, match="already registered"):
                register_profile(uniform_profile(0.33))
        finally:
            unregister_profile("uniform-33")
        with pytest.raises(KeyError, match="registered profiles"):
            get_profile("uniform-33")

    def test_profile_lookup_is_case_insensitive(self):
        """Names with uppercase characters stay reachable everywhere."""
        profile = uniform_profile(0.42, name="MyProfile")
        register_profile(profile)
        try:
            assert get_profile("MyProfile") is profile
            assert get_profile("myprofile") is profile
            assert "MyProfile" in available_profiles()
            with pytest.raises(ValueError, match="already registered"):
                register_profile(uniform_profile(0.42, name="MYPROFILE"))
        finally:
            unregister_profile("MyProfile")
        assert "MyProfile" not in available_profiles()

    def test_floor_density_workload_through_cycle_model(self):
        """The sparsest representable profile survives the cycle model."""
        spec = plain_cnn(depth=1, channels=4, extent=8).layers[0]
        workload = build_layer_workload(
            "floor-test",
            spec,
            LayerSparsity(MIN_DENSITY, MIN_DENSITY),
            np.random.default_rng(0),
        )
        result = simulate_layer_cycles(
            spec, workload.weights, workload.activations, SCNN_CONFIG
        )
        assert result.cycles >= 0
        assert 0.0 <= result.multiplier_utilization <= 1.0
        # The floor leaves *some* non-zeros; the Cartesian-product count
        # tracks the operand non-zero counts the generator placed.
        assert result.weight_nonzeros > 0
        assert result.activation_nonzeros > 0

    def test_all_zero_operands_yield_zero_work(self):
        """Fully zero tensors (density floor rounding) must not crash."""
        spec = plain_cnn(depth=1, channels=1, extent=4, in_channels=1).layers[0]
        weights = np.zeros(spec.weight_shape)
        activations = np.zeros(spec.input_shape)
        result = simulate_layer_cycles(spec, weights, activations, SCNN_CONFIG)
        assert result.products == 0
        assert result.cycles == 0


class TestWorkloadsThroughTheEngine:
    def test_engine_uses_the_specs_density_profile(self):
        """plain-cnn-8 binds uniform-50: measured densities track 0.5."""
        engine = SimulationEngine(cache_dir=False)
        simulation = engine.run_network("plain-cnn-8")
        for layer in simulation.layers:
            assert layer.workload.target == LayerSparsity(0.5, 0.5)

    def test_partial_sparsity_override_fails_with_layer_names(self):
        """An incomplete override table names the uncovered layers."""
        engine = SimulationEngine(cache_dir=False)
        with pytest.raises(KeyError, match="assigns no density.*conv2"):
            engine.run_network(
                "plain-cnn-8", sparsity={"conv1": LayerSparsity(0.5, 0.5)}
            )

    def test_sparsity_override_changes_the_result(self):
        engine = SimulationEngine(cache_dir=False)
        network = get_network("plain-cnn-8")
        dense_table = {s.name: LayerSparsity(1.0, 1.0) for s in network.layers}
        base = engine.run_network("plain-cnn-8")
        dense = engine.run_network("plain-cnn-8", sparsity=dense_table)
        assert dense.total_cycles("SCNN") > base.total_cycles("SCNN")

    def test_dse_sweep_accepts_workload_names(self):
        engine = SimulationEngine(cache_dir=False)
        points = engine.sweep([SCNN_CONFIG], "bottleneck-stack-4")
        assert len(points) == 1 and points[0].cycles > 0

    def test_figure_drivers_honour_the_workload_profile(self):
        """fig8 on a synthetic workload uses its registered densities.

        The figure drivers resolve networks through the same registry path
        as the compare/network scenarios, so one workload name means one
        density assignment everywhere.
        """
        from repro.experiments import fig8_performance

        engine = SimulationEngine(cache_dir=False)
        reports = fig8_performance.run(networks=("plain-cnn-8",), engine=engine)
        direct = engine.run_network("plain-cnn-8")
        assert reports["PlainCNN-8"].network_speedup == direct.network_speedup
        for layer in direct.layers:
            assert layer.workload.target == LayerSparsity(0.5, 0.5)
