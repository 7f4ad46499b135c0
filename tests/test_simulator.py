"""Tests for the layer/network simulation records (repro.scnn.simulator).

Networks are simulated by the engine (the only way a network is simulated)
and aggregated by :func:`repro.arch.compare.network_comparison`.
"""

import pytest

from repro.arch.compare import network_comparison
from repro.engine import SimulationEngine
from repro.nn.densities import LayerSparsity
from repro.nn.layers import ConvLayerSpec
from repro.nn.networks import Network, alexnet
from repro.scnn.simulator import DEFAULT_OUTPUT_DENSITY

from _helpers import make_handle, trio_simulation


@pytest.fixture(scope="module")
def tiny_network():
    """A small AlexNet-shaped network so network simulation stays fast."""
    return Network(
        "MiniNet",
        (
            ConvLayerSpec("conv1", 3, 16, 31, 31, 5, 5, stride=2, module="front"),
            ConvLayerSpec("conv2", 16, 32, 14, 14, 3, 3, padding=1, module="front"),
            ConvLayerSpec("conv3", 32, 32, 14, 14, 3, 3, padding=1, module="back"),
            ConvLayerSpec("conv4", 32, 16, 7, 7, 1, 1, module="back"),
        ),
    )


@pytest.fixture(scope="module")
def tiny_sparsity():
    return {
        "conv1": LayerSparsity(0.8, 1.0),
        "conv2": LayerSparsity(0.4, 0.5),
        "conv3": LayerSparsity(0.35, 0.45),
        "conv4": LayerSparsity(0.3, 0.4),
    }


@pytest.fixture(scope="module")
def tiny_simulation(tiny_network, tiny_sparsity):
    engine = SimulationEngine(cache_dir=False)
    return engine.run_network(tiny_network, seed=5, sparsity=tiny_sparsity)


@pytest.fixture(scope="module")
def tiny_comparison(tiny_simulation):
    return network_comparison(tiny_simulation)


class TestLayerSimulation:
    @pytest.fixture
    def small_workload(self, small_spec):
        return make_handle(small_spec)

    def test_contains_all_results(self, small_workload):
        sim = trio_simulation(small_workload)
        assert sim.scnn.cycles > 0
        assert sim.dcnn.cycles > 0
        assert sim.oracle_cycles > 0
        assert set(sim.energy) == {"SCNN", "DCNN", "DCNN-opt"}
        assert sim.output_density == DEFAULT_OUTPUT_DENSITY

    def test_speedup_definitions(self, small_workload):
        sim = trio_simulation(small_workload)
        assert sim.scnn_speedup == pytest.approx(sim.dcnn.cycles / sim.scnn.cycles)
        assert sim.oracle_speedup >= sim.scnn_speedup

    def test_energy_relative_to_dcnn(self, small_workload):
        sim = trio_simulation(small_workload)
        assert sim.energy_relative_to_dcnn("DCNN") == pytest.approx(1.0)
        assert sim.energy_relative_to_dcnn("SCNN") > 0.0

    def test_explicit_output_density(self, small_workload):
        sim = trio_simulation(small_workload, output_density=0.25)
        assert sim.output_density == 0.25


class TestSimulateNetwork:
    def test_one_simulation_per_layer(self, tiny_simulation, tiny_network):
        assert [sim.layer_name for sim in tiny_simulation.layers] == [
            spec.name for spec in tiny_network.layers
        ]

    def test_layer_lookup(self, tiny_simulation):
        assert tiny_simulation.layer("conv2").layer_name == "conv2"
        with pytest.raises(KeyError):
            tiny_simulation.layer("missing")

    def test_totals_are_sums(self, tiny_simulation, tiny_comparison):
        assert tiny_comparison.total_cycles("SCNN") == sum(
            sim.scnn.cycles for sim in tiny_simulation.layers
        )
        assert tiny_comparison.total_cycles("DCNN") == sum(
            sim.dcnn.cycles for sim in tiny_simulation.layers
        )
        assert tiny_comparison.oracle_total_cycles == sum(
            sim.oracle_cycles for sim in tiny_simulation.layers
        )
        with pytest.raises(KeyError):
            tiny_comparison.total_cycles("TPU")

    def test_network_speedup_consistent(self, tiny_comparison):
        expected = tiny_comparison.total_cycles("DCNN") / tiny_comparison.total_cycles("SCNN")
        assert tiny_comparison.speedup("SCNN") == pytest.approx(expected)
        assert tiny_comparison.oracle_speedup >= tiny_comparison.speedup("SCNN")

    def test_energy_ratios(self, tiny_comparison):
        assert tiny_comparison.energy_ratio("DCNN") == pytest.approx(1.0)
        assert 0.0 < tiny_comparison.energy_ratio("SCNN") < 1.5
        assert 0.0 < tiny_comparison.energy_ratio("DCNN-opt") <= 1.0

    def test_module_aggregation(self, tiny_comparison):
        assert tiny_comparison.modules() == ["front", "back"]
        assert tiny_comparison.module_speedup("front", "DCNN") == 1.0
        scnn = tiny_comparison.module_speedup("front", "SCNN")
        assert scnn > 0.0
        assert tiny_comparison.module_oracle_speedup("front") >= scnn
        utilization = tiny_comparison.module_utilization("back", "SCNN")
        assert 0.0 < utilization["multiplier_utilization"] <= 1.0
        assert 0.0 <= utilization["idle_fraction"] < 1.0

    def test_output_density_propagates_from_successor(self, tiny_simulation):
        layers = tiny_simulation.layers
        # conv1's output density is conv2's measured input activation density.
        assert layers[0].output_density == layers[1].workload.activation_density
        # The last layer has no successor and falls back to the default.
        assert layers[-1].output_density == DEFAULT_OUTPUT_DENSITY


class TestAlexNetEndToEnd:
    """Full-size AlexNet is small enough to simulate in a few seconds and
    provides the paper-level integration check."""

    @pytest.fixture(scope="class")
    def alexnet_simulation(self):
        return SimulationEngine(cache_dir=False).run_network(alexnet(), seed=0)

    @pytest.fixture(scope="class")
    def alexnet_comparison(self, alexnet_simulation):
        return network_comparison(alexnet_simulation)

    def test_speedup_in_paper_regime(self, alexnet_comparison):
        # Paper: 2.37x; the reproduction lands in the same band.
        assert 1.8 < alexnet_comparison.speedup("SCNN") < 3.8

    def test_oracle_bounds_scnn(self, alexnet_comparison):
        assert alexnet_comparison.oracle_speedup > alexnet_comparison.speedup("SCNN")

    def test_energy_improvements_in_paper_regime(self, alexnet_comparison):
        scnn_ratio = alexnet_comparison.energy_ratio("SCNN")
        opt_ratio = alexnet_comparison.energy_ratio("DCNN-opt")
        assert 0.25 < scnn_ratio < 0.7    # paper: ~1/2.3
        assert 0.35 < opt_ratio < 0.75    # paper: ~1/2.0

    def test_dense_first_layer_is_worst_case(self, alexnet_simulation):
        # conv1 has 100% activation density: smallest speedup of the network.
        conv1 = alexnet_simulation.layer("conv1")
        others = [
            sim.scnn_speedup
            for sim in alexnet_simulation.layers
            if sim.layer_name != "conv1"
        ]
        assert conv1.scnn_speedup < min(others)
