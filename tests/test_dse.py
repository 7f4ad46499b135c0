"""Tests for the design-space exploration helpers (repro.timeloop.dse)."""

import numpy as np
import pytest

from repro.arch import SCNN_CONFIG
from repro.nn.densities import network_sparsity
from repro.nn.layers import ConvLayerSpec
from repro.nn.networks import Network, get_network
from repro.timeloop.dse import (
    DesignPoint,
    default_candidates,
    evaluate_configs,
    pareto_frontier,
    summarize,
    sweep,
    sweep_densities,
)


@pytest.fixture(scope="module")
def small_network():
    return Network(
        "SweepNet",
        (
            ConvLayerSpec("a", 32, 64, 28, 28, 3, 3, padding=1),
            ConvLayerSpec("b", 64, 64, 14, 14, 1, 1),
            ConvLayerSpec("c", 64, 32, 7, 7, 3, 3, padding=1),
        ),
    )


@pytest.fixture(scope="module")
def small_sparsity():
    from repro.nn.densities import LayerSparsity

    return {
        "a": LayerSparsity(0.4, 0.5),
        "b": LayerSparsity(0.35, 0.45),
        "c": LayerSparsity(0.3, 0.4),
    }


class TestEvaluateConfig:
    def test_returns_positive_metrics(self, small_network, small_sparsity):
        [point] = evaluate_configs(
            [SCNN_CONFIG], small_network, sparsity=small_sparsity
        )
        assert point.cycles > 0
        assert point.energy > 0
        assert point.area_mm2 == pytest.approx(7.9, abs=0.3)
        assert point.energy_delay_product == pytest.approx(point.energy * point.cycles)

    def test_name_comes_from_config(self, small_network, small_sparsity):
        [point] = evaluate_configs(
            [SCNN_CONFIG.with_pe_count(16)], small_network, sparsity=small_sparsity
        )
        assert "16PE" in point.name


class TestSweepAndPareto:
    def test_sweep_evaluates_every_candidate(self, small_network):
        candidates = default_candidates()
        points = sweep(candidates, small_network)
        assert len(points) == len(candidates)
        assert {point.name for point in points} == {c.name for c in candidates}

    def test_default_candidates_cover_paper_studies(self):
        names = [config.name for config in default_candidates()]
        assert any("4PE" in name for name in names)
        assert any("A16" in name for name in names)
        assert any("Kc16" in name for name in names)

    def test_pareto_frontier_nonempty_and_subset(self, small_network, small_sparsity):
        points = sweep(default_candidates(), small_network)
        frontier = pareto_frontier(points)
        assert 0 < len(frontier) <= len(points)
        for point in frontier:
            assert point in points
        # No frontier point is dominated by any other evaluated point.
        for point in frontier:
            assert not any(other.dominates(point) for other in points)

    def test_dominance_relation(self):
        better = DesignPoint(SCNN_CONFIG, cycles=10, energy=10, area_mm2=5)
        worse = DesignPoint(SCNN_CONFIG, cycles=20, energy=12, area_mm2=5)
        equal = DesignPoint(SCNN_CONFIG, cycles=10, energy=10, area_mm2=5)
        assert better.dominates(worse)
        assert not worse.dominates(better)
        assert not better.dominates(equal)

    def test_summarize_normalises_to_first_point(self, small_network, small_sparsity):
        points = sweep([SCNN_CONFIG, SCNN_CONFIG.with_pe_count(4)], small_network)
        rows = summarize(points)
        assert rows[0][1:] == (1.0, 1.0, 1.0)
        assert len(rows) == 2
        assert summarize([]) == []


class TestSweepDensities:
    def test_override_columns(self, small_network, small_sparsity):
        weight, activation, output = sweep_densities(small_network, small_sparsity)
        np.testing.assert_array_equal(weight, [[0.4], [0.35], [0.3]])
        np.testing.assert_array_equal(activation, [[0.5], [0.45], [0.4]])
        # Each layer's outputs are its successor's inputs; the last gets 0.55.
        np.testing.assert_array_equal(output, [[0.45], [0.4], [0.55]])

    def test_default_is_the_measured_calibration(self):
        network = get_network("alexnet")
        default = sweep_densities(network)
        calibrated = sweep_densities(network, network_sparsity(network))
        for column, expected in zip(default, calibrated):
            assert column.shape == (len(network.layers), 1)
            np.testing.assert_array_equal(column, expected)
        _, activation, output = default
        np.testing.assert_array_equal(output[:-1], activation[1:])
        assert output[-1, 0] == 0.55


class TestGridSweep:
    def test_respects_sparsity_override(self, small_network, small_sparsity):
        from repro.timeloop.energy import layer_energy_from_densities
        from repro.timeloop.model import estimate_scnn_layer

        [point] = evaluate_configs(
            [SCNN_CONFIG], small_network, sparsity=small_sparsity
        )
        # Layer-order reference at the override densities; each layer's
        # output density is the next layer's override activation density,
        # and 0.55 for the last layer.
        specs = list(small_network.layers)
        cycles = 0.0
        energy = 0.0
        for index, spec in enumerate(specs):
            layer = small_sparsity[spec.name]
            estimate = estimate_scnn_layer(
                spec,
                weight_density=layer.weight_density,
                activation_density=layer.activation_density,
            )
            cycles += estimate.cycles
            energy += layer_energy_from_densities(
                spec,
                SCNN_CONFIG,
                weight_density=layer.weight_density,
                activation_density=layer.activation_density,
                output_density=(
                    small_sparsity[specs[index + 1].name].activation_density
                    if index + 1 < len(specs)
                    else 0.55
                ),
                cycles=int(estimate.cycles),
            ).total
        assert point.cycles == cycles
        assert point.energy == energy

    def test_empty_candidate_list(self, small_network):
        assert sweep([], small_network) == []
