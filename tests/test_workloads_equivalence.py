"""Pinned equivalence: the workload registry reproduces the paper trio bitwise.

Mirrors ``tests/test_compare_equivalence.py`` on the workload axis: routing
AlexNet / GoogLeNet / VGGNet through the registry (``get_network`` shim,
``resolve_workload``, the engine's name resolution) must produce *exactly*
what the pre-registry builders produced — identical layer catalogues,
identical sparsity calibration, bitwise-identical simulation metrics.  This
is the contract that lets the workload refactor touch nn/engine/service
without moving a single reported result.

The second half covers the other direction: a workload registered at
*runtime* must be accepted end-to-end — by the engine, by scenario
validation (the frozen-choices bugfix) and by the service's ``compare``
scenario over real HTTP.
"""

import pytest

from repro.engine import SimulationEngine
from repro.nn.densities import network_sparsity
from repro.nn.networks import alexnet, get_network, googlenet, vggnet
from repro.workloads import (
    WorkloadSpec,
    default_registry,
    get_workload,
    plain_cnn,
    resolve_workload,
)

BUILDERS = {"alexnet": alexnet, "googlenet": googlenet, "vggnet": vggnet}


class TestPaperTrioBitwiseIdentical:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_registry_network_equals_builder_network(self, name):
        """Same layer tuples, same names, same aggregate characteristics."""
        direct = BUILDERS[name]()
        registered = get_network(name)
        assert registered == direct
        assert registered.layers == direct.layers
        assert registered.name == direct.name
        assert registered.total_multiplies == direct.total_multiplies

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_registry_sparsity_equals_measured_calibration(self, name):
        """The trio's specs bind the measured (Figure 1) profile."""
        network, sparsity = resolve_workload(name)
        assert sparsity == network_sparsity(network)

    def test_googlenet_stem_variant_reaches_the_builder_option(self):
        """googlenet(include_stem=True) is reachable by name (was dead).

        Same layer catalogue, distinct display name — so the variant never
        shadows plain GoogLeNet in display-name-keyed report dicts.
        """
        stem = get_network("googlenet-stem")
        assert stem.layers == googlenet(include_stem=True).layers
        assert stem.conv_layer_count == 57
        assert stem.name == "GoogLeNet-stem"

    def test_googlenet_stem_keeps_the_measured_calibration(self):
        """The display-name suffix must not drop the Figure 1 densities."""
        plain, plain_sparsity = resolve_workload("googlenet")
        stem, stem_sparsity = resolve_workload("googlenet-stem")
        # Inception layers: identical calibration in both flavours.
        for spec in plain.layers:
            assert stem_sparsity[spec.name] == plain_sparsity[spec.name]
        # Stem layers get the module-aware stem calibration, not the flat
        # unknown-network default (0.40, 0.45).
        conv1 = stem_sparsity["conv1/7x7_s2"]
        assert (conv1.weight_density, conv1.activation_density) != (0.40, 0.45)
        assert conv1.activation_density > 0.9  # near-dense input layer

    def test_duplicate_requests_are_deduplicated(self):
        """Repeating a name is harmless (as before the collision guard)."""
        from repro.arch.compare import compare_networks

        engine = SimulationEngine(cache_dir=False)
        comparisons = compare_networks(
            ["plain-cnn-8", "plain-cnn-8", "Plain-CNN-8"], ["DCNN", "SCNN"],
            engine=engine,
        )
        assert list(comparisons) == ["PlainCNN-8"]
        # Name and equal Network object are the same request for a paper
        # network (the object path's measured fallback equals the spec's
        # profile there, so the comparisons are equal and deduplicate).
        mixed = compare_networks(
            ["alexnet", get_network("alexnet")], ["DCNN", "SCNN"],
            engine=engine,
        )
        assert list(mixed) == ["AlexNet"]
        # For a synthetic workload the object path falls back to the measured
        # calibration, so the two spellings are *different* evaluations — a
        # silent overwrite would hide that, hence the loud error.
        with pytest.raises(ValueError, match="share the display name"):
            compare_networks(
                ["plain-cnn-8", get_network("plain-cnn-8")], ["DCNN", "SCNN"],
                engine=engine,
            )

    def test_distinct_workloads_sharing_a_display_name_fail_loudly(self):
        """Silent shadowing is an error with an actionable message."""
        from repro.arch.compare import compare_networks

        spec = WorkloadSpec(
            name="alexnet-imposter",
            builder=lambda: plain_cnn(depth=1, channels=2, extent=4,
                                      name="AlexNet"),
            density_profile="dense",
        )
        default_registry().register(spec)
        engine = SimulationEngine(cache_dir=False)
        try:
            with pytest.raises(ValueError, match="share the display name"):
                compare_networks(
                    ["alexnet", "alexnet-imposter"], ["DCNN", "SCNN"],
                    engine=engine,
                )
        finally:
            default_registry().unregister("alexnet-imposter")

    def test_googlenet_and_stem_variant_compare_side_by_side(self):
        """Both GoogLeNet flavours survive one compare_networks call."""
        from repro.arch.compare import compare_networks

        engine = SimulationEngine(cache_dir=False)
        comparisons = compare_networks(
            ["googlenet", "googlenet-stem"], ["DCNN", "SCNN"], engine=engine
        )
        assert set(comparisons) == {"GoogLeNet", "GoogLeNet-stem"}
        # The stem adds work: its DCNN total must exceed the stem-free one.
        assert comparisons["GoogLeNet-stem"].total_cycles("DCNN") > comparisons[
            "GoogLeNet"
        ].total_cycles("DCNN")

    def test_name_resolved_simulation_bitwise_equal_to_network_object(self):
        """A name-resolved engine run == a run of the pre-registry builder's
        Network (its measured calibration), on a second engine."""
        reference = SimulationEngine(cache_dir=False).run_network(alexnet(), seed=0)
        via_registry = SimulationEngine(cache_dir=False).run_network("alexnet", seed=0)
        for ours, theirs in zip(via_registry.layers, reference.layers):
            assert ours.scnn.cycles == theirs.scnn.cycles
            assert ours.dcnn.cycles == theirs.dcnn.cycles
            assert ours.oracle_cycles == theirs.oracle_cycles
            for arch in ("SCNN", "DCNN", "DCNN-opt"):
                assert ours.energy[arch].total == theirs.energy[arch].total


@pytest.fixture
def runtime_workload():
    """A workload registered mid-session, unregistered on the way out."""
    spec = WorkloadSpec(
        name="runtime-net",
        builder=lambda: plain_cnn(depth=2, channels=4, extent=8,
                                  name="RuntimeNet"),
        density_profile="uniform-50",
        description="tiny runtime-registered chain",
    )
    default_registry().register(spec)
    try:
        yield spec
    finally:
        default_registry().unregister(spec.name)


class TestRuntimeRegistrationEndToEnd:
    def test_engine_and_compare_accept_runtime_workload(self, runtime_workload):
        engine = SimulationEngine(cache_dir=False)
        simulation = engine.run_network("runtime-net")
        assert simulation.network.name == "RuntimeNet"

        from repro.arch.compare import compare_network

        comparison = compare_network(
            "runtime-net", ["DCNN", "SCNN"], engine=engine
        )
        assert comparison.network == "RuntimeNet"
        assert comparison.speedup("SCNN") > 0

    def test_scenario_validation_sees_runtime_workload(self, runtime_workload):
        """The frozen-choices bug: validation must hit the live registry."""
        from repro.service.scenarios import ScenarioError, default_registry as scenarios

        registry = scenarios()
        params = registry.get("network").validate({"network": "runtime-net"})
        assert params["network"] == "runtime-net"
        with pytest.raises(ScenarioError, match="must be one of"):
            registry.get("network").validate({"network": "never-registered"})

    def test_service_compare_scenario_over_http(self, runtime_workload, tmp_path):
        """A runtime-registered network through POST /jobs → GET /results."""
        from repro.service import ServiceClient, create_server

        engine = SimulationEngine(cache_dir=tmp_path / "cache")
        server = create_server(port=0, engine=engine, num_workers=2)
        server.start()
        try:
            client = ServiceClient(server.url)
            payload = client.run(
                "compare",
                {"networks": ["runtime-net"], "architectures": ["DCNN", "SCNN"]},
                timeout=120.0,
            )
            assert "RuntimeNet" in payload["comparisons"]
            network_payload = payload["comparisons"]["RuntimeNet"]
            assert set(network_payload["architectures"]) == {"DCNN", "SCNN"}
        finally:
            server.stop()


class TestScenarioChoicesAreLive:
    def test_choices_reflect_registration_after_registry_build(self):
        """Register *after* the scenario registry exists — must be accepted."""
        from repro.service.scenarios import default_registry as scenarios

        scenario_registry = scenarios()  # frozen-choices bug would snapshot here
        spec = WorkloadSpec(
            name="post-build-net",
            builder=lambda: plain_cnn(depth=1, channels=2, extent=4,
                                      name="PostBuildNet"),
            density_profile="dense",
        )
        default_registry().register(spec)
        try:
            network_scenario = scenario_registry.get("network")
            assert (
                network_scenario.validate({"network": "post-build-net"})["network"]
                == "post-build-net"
            )
            compare_scenario = scenario_registry.get("compare")
            assert compare_scenario.validate({"networks": ["post-build-net"]})[
                "networks"
            ] == ["post-build-net"]
            described = {
                p["name"]: p for p in network_scenario.describe()["parameters"]
            }
            assert "post-build-net" in described["network"]["choices"]
        finally:
            default_registry().unregister("post-build-net")
