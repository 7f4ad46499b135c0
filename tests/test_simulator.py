"""Tests for the layer/network simulation drivers (repro.scnn.simulator)."""

import pytest

from repro.nn.densities import LayerSparsity
from repro.nn.inference import build_network_workloads
from repro.nn.layers import ConvLayerSpec
from repro.nn.networks import Network, alexnet
from repro.scnn.simulator import (
    DEFAULT_OUTPUT_DENSITY,
    simulate_layer,
    simulate_network,
)

from _helpers import make_workload


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
    workloads = build_network_workloads(tiny_network, tiny_sparsity, seed=5)
    return simulate_network(tiny_network, workloads=workloads)


class TestSimulateLayer:
    def test_contains_all_results(self, small_workload):
        sim = simulate_layer(small_workload)
        assert sim.scnn.cycles > 0
        assert sim.dcnn.cycles > 0
        assert sim.oracle_cycles > 0
        assert set(sim.energy) == {"SCNN", "DCNN", "DCNN-opt"}
        assert sim.output_density == DEFAULT_OUTPUT_DENSITY

    def test_speedup_definitions(self, small_workload):
        sim = simulate_layer(small_workload)
        assert sim.scnn_speedup == pytest.approx(sim.dcnn.cycles / sim.scnn.cycles)
        assert sim.oracle_speedup >= sim.scnn_speedup

    def test_energy_relative_to_dcnn(self, small_workload):
        sim = simulate_layer(small_workload)
        assert sim.energy_relative_to_dcnn("DCNN") == pytest.approx(1.0)
        assert sim.energy_relative_to_dcnn("SCNN") > 0.0

    def test_explicit_output_density(self, small_workload):
        sim = simulate_layer(small_workload, output_density=0.25)
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

    def test_totals_are_sums(self, tiny_simulation):
        assert tiny_simulation.total_cycles("SCNN") == sum(
            sim.scnn.cycles for sim in tiny_simulation.layers
        )
        assert tiny_simulation.total_cycles("DCNN") == sum(
            sim.dcnn.cycles for sim in tiny_simulation.layers
        )
        assert tiny_simulation.total_cycles("oracle") == sum(
            sim.oracle_cycles for sim in tiny_simulation.layers
        )
        with pytest.raises(KeyError):
            tiny_simulation.total_cycles("TPU")

    def test_network_speedup_consistent(self, tiny_simulation):
        expected = tiny_simulation.total_cycles("DCNN") / tiny_simulation.total_cycles("SCNN")
        assert tiny_simulation.network_speedup == pytest.approx(expected)
        assert tiny_simulation.oracle_network_speedup >= tiny_simulation.network_speedup

    def test_energy_ratios(self, tiny_simulation):
        assert tiny_simulation.network_energy_ratio("DCNN") == pytest.approx(1.0)
        assert 0.0 < tiny_simulation.network_energy_ratio("SCNN") < 1.5
        assert 0.0 < tiny_simulation.network_energy_ratio("DCNN-opt") <= 1.0

    def test_module_aggregation(self, tiny_simulation):
        assert tiny_simulation.modules() == ["front", "back"]
        speedups = tiny_simulation.module_speedup("front")
        assert speedups["DCNN"] == 1.0
        assert speedups["SCNN"] > 0.0
        assert speedups["SCNN (oracle)"] >= speedups["SCNN"]
        utilization = tiny_simulation.module_utilization("back")
        assert 0.0 < utilization["multiplier_utilization"] <= 1.0
        assert 0.0 <= utilization["idle_fraction"] < 1.0

    def test_output_density_propagates_from_successor(self, tiny_network, tiny_sparsity):
        workloads = build_network_workloads(tiny_network, tiny_sparsity, seed=5)
        simulation = simulate_network(tiny_network, workloads=workloads)
        # conv1's output density is conv2's measured input activation density.
        assert simulation.layers[0].output_density == pytest.approx(
            workloads[1].activation_density
        )
        # The last layer has no successor and falls back to the default.
        assert simulation.layers[-1].output_density == DEFAULT_OUTPUT_DENSITY


class TestAlexNetEndToEnd:
    """Full-size AlexNet is small enough to simulate in a few seconds and
    provides the paper-level integration check."""

    @pytest.fixture(scope="class")
    def alexnet_simulation(self):
        return simulate_network(alexnet(), seed=0)

    def test_speedup_in_paper_regime(self, alexnet_simulation):
        # Paper: 2.37x; the reproduction lands in the same band.
        assert 1.8 < alexnet_simulation.network_speedup < 3.8

    def test_oracle_bounds_scnn(self, alexnet_simulation):
        assert (
            alexnet_simulation.oracle_network_speedup
            > alexnet_simulation.network_speedup
        )

    def test_energy_improvements_in_paper_regime(self, alexnet_simulation):
        scnn_ratio = alexnet_simulation.network_energy_ratio("SCNN")
        opt_ratio = alexnet_simulation.network_energy_ratio("DCNN-opt")
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
