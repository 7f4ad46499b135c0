"""Tests for the network catalogues (repro.nn.networks)."""

from collections import Counter

import pytest

from repro.nn.networks import (
    Network,
    alexnet,
    available_networks,
    get_network,
    googlenet,
    vggnet,
)
from repro.nn.layers import ConvLayerSpec


class TestAlexNet:
    def test_five_conv_layers(self):
        assert alexnet().conv_layer_count == 5

    def test_total_multiplies_near_paper(self):
        # Paper Table I: 0.69 billion multiplies.
        total = alexnet().total_multiplies
        assert 0.6e9 < total < 0.75e9

    def test_max_weight_footprint_near_paper(self):
        # Paper Table I: 1.73 MB (conv3).
        assert alexnet().max_layer_weight_bytes == pytest.approx(
            1.73 * 1024 * 1024, rel=0.05
        )

    def test_grouped_layers(self):
        network = alexnet()
        assert network.layer("conv2").groups == 2
        assert network.layer("conv3").groups == 1


class TestGoogLeNet:
    def test_fifty_four_inception_layers(self):
        assert googlenet().conv_layer_count == 54

    def test_stem_optional(self):
        assert googlenet(include_stem=True).conv_layer_count == 57

    def test_nine_inception_modules(self):
        modules = list(dict.fromkeys(spec.module for spec in googlenet().layers))
        assert len(modules) == 9
        assert modules[0] == "IC_3a"
        assert modules[-1] == "IC_5b"

    def test_each_module_has_six_convolutions(self):
        modules = Counter(spec.module for spec in googlenet().layers)
        assert set(modules.values()) == {6}

    def test_total_multiplies_near_paper(self):
        # Paper Table I: 1.1 billion for the 54 inception convolutions.
        total = googlenet().total_multiplies
        assert 0.8e9 < total < 1.4e9

    def test_max_weight_footprint_near_paper(self):
        # Paper Table I: 1.32 MB (inception_5b 3x3).
        assert googlenet().max_layer_weight_bytes == pytest.approx(
            1.32 * 1024 * 1024, rel=0.05
        )

    def test_branch_output_channels_sum_to_module_output(self):
        network = googlenet()
        # inception 3a outputs 256 channels, which is 3b's input count.
        module_3a = [spec for spec in network.layers if spec.module == "IC_3a"]
        concat_channels = sum(
            spec.out_channels
            for spec in module_3a
            if spec.name.split("/")[-1] in ("1x1", "3x3", "5x5", "pool_proj")
        )
        assert concat_channels == 256
        assert network.layer("IC_3b/1x1").in_channels == 256


class TestVGGNet:
    def test_thirteen_conv_layers(self):
        assert vggnet().conv_layer_count == 13

    def test_total_multiplies_near_paper(self):
        # Paper Table I: 15.3 billion.
        assert vggnet().total_multiplies == pytest.approx(15.3e9, rel=0.02)

    def test_max_activation_footprint_near_paper(self):
        # Paper Table I: 6.12 MB (conv1_2 input).
        assert vggnet().max_layer_activation_bytes == pytest.approx(
            6.12 * 1024 * 1024, rel=0.05
        )

    def test_all_filters_three_by_three(self):
        for spec in vggnet():
            assert (spec.filter_height, spec.filter_width) == (3, 3)
            assert spec.padding == 1


class TestNetworkContainer:
    def test_get_network_case_insensitive(self):
        assert get_network("AlexNet").name == "AlexNet"
        assert get_network("VGGNET").name == "VGGNet"

    def test_unknown_network_rejected(self):
        with pytest.raises(KeyError):
            get_network("lenet")

    def test_available_networks(self):
        # A sorted live view of the workload registry: the paper trio (plus
        # the stem variant) is always present; synthetics ride along.
        names = available_networks()
        assert names == sorted(names)
        assert {"alexnet", "googlenet", "googlenet-stem", "vggnet"} <= set(names)

    def test_layer_lookup(self):
        network = vggnet()
        assert network.layer("conv4_2").in_channels == 512
        with pytest.raises(KeyError):
            network.layer("missing")

    def test_duplicate_layer_names_rejected(self):
        spec = ConvLayerSpec("dup", 3, 4, 8, 8, 3, 3, padding=1)
        with pytest.raises(ValueError):
            Network("broken", (spec, spec))

    def test_iteration_and_len(self):
        network = alexnet()
        assert len(network) == 5
        assert [spec.name for spec in network] == [
            "conv1", "conv2", "conv3", "conv4", "conv5",
        ]
