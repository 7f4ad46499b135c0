"""Tests for the analytical (TimeLoop-style) performance model."""

import pytest

from repro.arch import DCNN_CONFIG, SCNN_CONFIG
from repro.nn.layers import ConvLayerSpec
from repro.scnn.cycles import simulate_layer_cycles
from repro.scnn.dcnn import simulate_dcnn_layer
from repro.timeloop.model import (
    estimate_dense_layer,
    estimate_scnn_layer,
)

from _helpers import make_handle


@pytest.fixture
def inception_spec():
    return ConvLayerSpec("IC/3x3", 96, 128, 28, 28, 3, 3, padding=1)


class TestAnalyticalScnnEstimate:
    def test_monotone_in_density(self, inception_spec):
        cycles = [
            estimate_scnn_layer(
                inception_spec, weight_density=d, activation_density=d
            ).cycles
            for d in (0.1, 0.3, 0.5, 0.7, 1.0)
        ]
        assert cycles == sorted(cycles)

    def test_close_to_cycle_model_at_matching_density(self, inception_spec):
        workload = make_handle(inception_spec, 0.4, 0.5, seed=2)
        measured = simulate_layer_cycles(inception_spec, *workload.masks())
        estimate = estimate_scnn_layer(
            inception_spec,
            weight_density=workload.weight_density,
            activation_density=workload.activation_density,
        )
        assert estimate.cycles == pytest.approx(measured.cycles, rel=0.15)

    def test_fragmentation_penalty_at_low_density(self, inception_spec):
        """E[ceil] exceeds ceil(E): cycles shrink slower than the work does."""
        dense = estimate_scnn_layer(
            inception_spec, weight_density=1.0, activation_density=1.0
        )
        sparse = estimate_scnn_layer(
            inception_spec, weight_density=0.1, activation_density=0.1
        )
        work_ratio = 0.01
        cycle_ratio = sparse.cycles / dense.cycles
        assert cycle_ratio > work_ratio
        assert sparse.multiplier_utilization < dense.multiplier_utilization

    def test_invalid_densities_rejected(self, inception_spec):
        with pytest.raises(ValueError):
            estimate_scnn_layer(
                inception_spec, weight_density=0.0, activation_density=0.5
            )
        with pytest.raises(ValueError):
            estimate_scnn_layer(
                inception_spec, weight_density=0.5, activation_density=1.5
            )

    def test_strided_layer_supported(self):
        spec = ConvLayerSpec("conv1", 3, 96, 227, 227, 11, 11, stride=4)
        estimate = estimate_scnn_layer(
            spec, weight_density=0.84, activation_density=1.0
        )
        dense = estimate_dense_layer(spec)
        # AlexNet conv1 is roughly throughput-neutral between SCNN and DCNN.
        assert 0.5 < dense.cycles / estimate.cycles < 2.0

    def test_pe_count_tradeoff_on_pointwise_layer(self):
        """On GoogLeNet's 1x1 layers a few large PEs cannot fill their wide
        weight vectors (only Kc non-zero weights per block), so the 64-PE
        configuration wins — the intra-PE fragmentation effect of Section VI-C."""
        spec = ConvLayerSpec("IC/1x1", 480, 192, 14, 14, 1, 1)
        many = estimate_scnn_layer(
            spec, weight_density=0.35, activation_density=0.45,
            config=SCNN_CONFIG.with_pe_count(64),
        )
        few = estimate_scnn_layer(
            spec, weight_density=0.35, activation_density=0.45,
            config=SCNN_CONFIG.with_pe_count(4),
        )
        assert many.cycles < few.cycles
        assert many.multiplier_utilization > few.multiplier_utilization


class TestAnalyticalDenseEstimate:
    def test_matches_dcnn_simulator(self, inception_spec):
        estimate = estimate_dense_layer(inception_spec)
        simulated = simulate_dcnn_layer(inception_spec, DCNN_CONFIG)
        assert estimate.cycles == simulated.cycles
        assert estimate.products == simulated.multiplies

    def test_density_independent(self, inception_spec):
        assert (
            estimate_dense_layer(inception_spec).cycles
            == estimate_dense_layer(inception_spec).cycles
        )


class TestPaperLandmarks:
    """The analytical model must reproduce the paper's Figure 7a landmarks."""

    def _googlenet_ratio(self, density):
        from repro.nn.networks import googlenet

        network = googlenet()
        scnn = sum(
            estimate_scnn_layer(
                spec, weight_density=density, activation_density=density
            ).cycles
            for spec in network.layers
        )
        dcnn = sum(estimate_dense_layer(spec).cycles for spec in network.layers)
        return scnn / dcnn

    def test_dense_case_scnn_slower_than_dcnn(self):
        # Paper: at 100% density SCNN reaches ~79% of DCNN performance.
        ratio = self._googlenet_ratio(1.0)
        assert 1.1 < ratio < 1.6

    def test_crossover_below_85_percent(self):
        assert self._googlenet_ratio(0.85) > 0.95
        assert self._googlenet_ratio(0.7) < 1.0

    def test_large_win_at_ten_percent(self):
        # Paper: ~24x at 10% density; the model must land in the same regime.
        assert 1.0 / self._googlenet_ratio(0.1) > 12.0
