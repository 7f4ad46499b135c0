"""Tests for the Figure 1 density calibration (repro.nn.densities)."""

import pytest

from repro.nn.densities import (
    LayerSparsity,
    network_sparsity,
    sparsity_for_layer,
    uniform_sparsity,
)
from repro.nn.networks import alexnet, googlenet, vggnet


class TestLayerSparsity:
    def test_invalid_densities_rejected(self):
        with pytest.raises(ValueError):
            LayerSparsity(0.0, 0.5)
        with pytest.raises(ValueError):
            LayerSparsity(0.5, 1.5)


class TestCalibration:
    def test_every_catalogue_layer_has_calibration(self):
        for network in (alexnet(), googlenet(), vggnet()):
            table = network_sparsity(network)
            assert set(table) == {spec.name for spec in network.layers}
            for sparsity in table.values():
                assert 0.0 < sparsity.weight_density <= 1.0
                assert 0.0 < sparsity.activation_density <= 1.0

    def test_first_layer_activations_fully_dense(self):
        # Input images have no ReLU-induced zeros (paper Figure 1).
        alex = network_sparsity(alexnet())
        vgg = network_sparsity(vggnet())
        assert alex["conv1"].activation_density == 1.0
        assert vgg["conv1_1"].activation_density == 1.0

    def test_densities_within_paper_ranges(self):
        # Paper: weight density 20-85%, activation density 25-100%.
        for network in (alexnet(), googlenet(), vggnet()):
            for sparsity in network_sparsity(network).values():
                assert 0.15 <= sparsity.weight_density <= 0.9
                assert 0.25 <= sparsity.activation_density <= 1.0

    def test_typical_work_reduction_matches_paper(self):
        # Paper: typical layers reduce work by ~4x, up to ~10x.
        reductions = [
            1.0 / (sparsity.weight_density * sparsity.activation_density)
            for network in (alexnet(), googlenet(), vggnet())
            for name, sparsity in network_sparsity(network).items()
            if sparsity.activation_density < 1.0  # exclude dense input layers
        ]
        assert 3.0 < sum(reductions) / len(reductions) < 9.0
        assert max(reductions) > 6.0

    def test_googlenet_later_modules_sparser(self):
        network = googlenet()
        table = network_sparsity(network)
        early = table["IC_3a/3x3"]
        late = table["IC_5b/3x3"]
        assert late.weight_density < early.weight_density
        assert late.activation_density < early.activation_density

    def test_googlenet_minimum_weight_density_near_thirty_percent(self):
        # Paper: "reaching a minimum of 30% for some of the GoogLeNet layers".
        table = network_sparsity(googlenet())
        assert min(s.weight_density for s in table.values()) == pytest.approx(
            0.3, abs=0.05
        )

    def test_unknown_layer_gets_default(self):
        from repro.nn.layers import ConvLayerSpec

        spec = ConvLayerSpec("mystery", 4, 8, 10, 10, 3, 3, padding=1)
        sparsity = sparsity_for_layer("alexnet", spec)
        assert 0.0 < sparsity.weight_density <= 1.0

    def test_unknown_network_gets_default(self):
        from repro.nn.layers import ConvLayerSpec

        spec = ConvLayerSpec("conv1", 4, 8, 10, 10, 3, 3, padding=1)
        sparsity = sparsity_for_layer("resnet", spec)
        assert sparsity.weight_density == pytest.approx(0.40)


class TestUniformSparsity:
    def test_every_layer_gets_requested_density(self):
        table = uniform_sparsity(googlenet(), 0.5)
        assert all(
            s.weight_density == 0.5 and s.activation_density == 0.5
            for s in table.values()
        )
        assert len(table) == 54
