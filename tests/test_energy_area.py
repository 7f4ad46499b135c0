"""Tests for the energy and area models (repro.timeloop.energy / area)."""

import numpy as np
import pytest

from repro.arch import DCNN_CONFIG, DCNN_OPT_CONFIG, SCNN_CONFIG
from repro.nn.layers import ConvLayerSpec
from repro.timeloop.area import (
    PE_AREA_BREAKDOWN,
    accelerator_area_mm2,
    pe_area_breakdown,
    pe_area_mm2,
    table_iv_configurations,
)
from repro.timeloop.energy import (
    DEFAULT_ENERGY_TABLE,
    ENERGY_COMPONENTS,
    EnergyTable,
    EventCounts,
    count_layer_events,
    energy_components,
    event_counts,
    layer_energy,
    layer_energy_from_densities,
)


@pytest.fixture
def vgg_like_spec():
    return ConvLayerSpec("mid", 128, 256, 56, 56, 3, 3, padding=1)


@pytest.fixture
def googlenet_like_spec():
    return ConvLayerSpec("ic", 480, 192, 14, 14, 1, 1)


def energy_of(spec, config, wd, ad, cycles, out_density=0.5, products=None):
    return layer_energy_from_densities(
        spec,
        config,
        weight_density=wd,
        activation_density=ad,
        output_density=out_density,
        cycles=cycles,
        products=products,
    ).total


class TestEventCounts:
    def test_scnn_counts_only_nonzero_products(self, googlenet_like_spec):
        events = count_layer_events(
            googlenet_like_spec, SCNN_CONFIG,
            weight_density=0.4, activation_density=0.5, output_density=0.5,
            cycles=1000,
        )
        assert events.multiplies == pytest.approx(
            googlenet_like_spec.multiplies * 0.2, rel=0.01
        )
        assert events.crossbar_products == events.multiplies
        assert events.accumulator_updates == events.multiplies

    def test_dcnn_counts_every_multiply(self, googlenet_like_spec):
        events = count_layer_events(
            googlenet_like_spec, DCNN_CONFIG,
            weight_density=0.4, activation_density=0.5, output_density=0.5,
            cycles=1000,
        )
        assert events.multiplies == googlenet_like_spec.multiplies
        assert events.crossbar_products == 0

    def test_dcnn_opt_gates_multiplies_only(self, googlenet_like_spec):
        events = count_layer_events(
            googlenet_like_spec, DCNN_OPT_CONFIG,
            weight_density=0.4, activation_density=0.5, output_density=0.5,
            cycles=1000,
        )
        assert events.multiplies < googlenet_like_spec.multiplies
        assert events.gated_multiplies > 0
        # The adder tree / accumulator still cycles for every step.
        assert events.accumulator_updates == googlenet_like_spec.multiplies // 4

    def test_small_layers_stay_on_chip(self, googlenet_like_spec):
        events = count_layer_events(
            googlenet_like_spec, SCNN_CONFIG,
            weight_density=0.4, activation_density=0.5, output_density=0.5,
            cycles=1000,
        )
        # Only (compressed) weights travel over DRAM.
        assert events.dram_values < googlenet_like_spec.weight_count

    def test_large_layers_spill_activations(self):
        spec = ConvLayerSpec("vgg_conv1_2", 64, 64, 224, 224, 3, 3, padding=1)
        scnn_events = count_layer_events(
            spec, SCNN_CONFIG,
            weight_density=0.3, activation_density=0.6, output_density=0.6,
            cycles=100000,
        )
        assert scnn_events.dram_values > spec.weight_count

    def test_dcnn_opt_compresses_dram_activations(self):
        spec = ConvLayerSpec("vgg_conv1_2", 64, 64, 224, 224, 3, 3, padding=1)
        dcnn = count_layer_events(
            spec, DCNN_CONFIG,
            weight_density=0.3, activation_density=0.6, output_density=0.6,
            cycles=100000,
        )
        opt = count_layer_events(
            spec, DCNN_OPT_CONFIG,
            weight_density=0.3, activation_density=0.6, output_density=0.6,
            cycles=100000,
        )
        assert opt.dram_values < dcnn.dram_values


class TestEventCountKernel:
    """The one event-count body, fed a layers x points grid of arrays."""

    @pytest.mark.parametrize("config", [SCNN_CONFIG, DCNN_CONFIG, DCNN_OPT_CONFIG])
    def test_array_counts_match_one_layer_at_a_time(
        self, config, googlenet_like_spec, vgg_like_spec
    ):
        specs = [
            googlenet_like_spec,
            vgg_like_spec,
            ConvLayerSpec("vgg_conv1_2", 64, 64, 224, 224, 3, 3, padding=1),
        ]
        weight = np.array([[0.1, 0.4, 0.9]])
        activation = np.array([[0.2, 0.5, 1.0]])
        output = np.array([[0.3, 0.55, 0.7]])
        cycles = np.array([[1000], [25000], [400000]])

        def column(attribute):
            return np.array([[getattr(spec, attribute)] for spec in specs])

        grid = event_counts(
            config,
            dense_macs=column("multiplies"),
            weight_values=column("weight_count"),
            input_values=column("input_activation_count"),
            output_values=column("output_activation_count"),
            num_groups=np.array(
                [[-(-spec.out_channels // config.output_channel_group)] for spec in specs]
            ),
            in_channels=column("in_channels"),
            weight_density=weight,
            activation_density=activation,
            output_density=output,
            cycles=cycles,
        )
        for row, spec in enumerate(specs):
            for point in range(weight.shape[1]):
                layer = count_layer_events(
                    spec,
                    config,
                    weight_density=float(weight[0, point]),
                    activation_density=float(activation[0, point]),
                    output_density=float(output[0, point]),
                    cycles=int(cycles[row, 0]),
                )
                for name, value in vars(layer).items():
                    # Counts that depend on neither axis come back as scalars.
                    counts = np.broadcast_to(getattr(grid, name), (len(specs), 3))
                    assert counts[row, point] == value, (spec.name, point, name)

    def test_energy_components_price_each_event(self):
        events = EventCounts(
            multiplies=11, gated_multiplies=5, accumulator_updates=13,
            crossbar_products=17, iaram_reads=19, oaram_writes=23,
            dense_sram_reads=29, dense_sram_writes=31, weight_buffer_reads=37,
            index_accesses=41, halo_transfers=43, dram_values=47, pe_cycles=53,
        )
        table = DEFAULT_ENERGY_TABLE.scaled(multiply=2.0, dram=100.0)
        components = energy_components(events, table)
        assert tuple(components) == ENERGY_COMPONENTS
        assert components == {
            "multiplier": 11 * 2.0,
            "accumulator": 13 * table.accumulator_update,
            "scatter crossbar": 17 * table.crossbar,
            "activation RAM": (
                19 * table.iaram_read
                + 23 * table.oaram_write
                + 29 * table.dense_sram_read
                + 31 * table.dense_sram_write
            ),
            "weight buffer": 37 * table.weight_buffer_read,
            "index handling": 41 * table.index_access,
            "halo exchange": 43 * table.halo_transfer,
            "DRAM": 47 * 100.0,
            "static / control": 53 * table.pe_cycle,
        }


class TestEnergyRelationships:
    def test_dcnn_opt_never_worse_than_dcnn(self, googlenet_like_spec):
        for density in (0.2, 0.5, 0.8, 1.0):
            dcnn = energy_of(googlenet_like_spec, DCNN_CONFIG, density, density, 10000)
            opt = energy_of(googlenet_like_spec, DCNN_OPT_CONFIG, density, density, 10000)
            assert opt <= dcnn + 1e-9

    def test_scnn_wins_at_low_density_loses_at_high(self, googlenet_like_spec):
        # Approximate cycle counts: DCNN fixed, SCNN scaling with density^2.
        dense_cycles = googlenet_like_spec.multiplies // 1024
        low = energy_of(
            googlenet_like_spec, SCNN_CONFIG, 0.2, 0.2, int(dense_cycles * 0.06)
        )
        high = energy_of(
            googlenet_like_spec, SCNN_CONFIG, 1.0, 1.0, int(dense_cycles * 1.3)
        )
        dcnn = energy_of(googlenet_like_spec, DCNN_CONFIG, 1.0, 1.0, dense_cycles)
        assert low < dcnn
        assert high > dcnn

    def test_energy_monotone_in_density_for_scnn(self, googlenet_like_spec):
        cycles = googlenet_like_spec.multiplies // 1024
        energies = [
            energy_of(googlenet_like_spec, SCNN_CONFIG, d, d, int(cycles * d * d) + 1)
            for d in (0.2, 0.4, 0.6, 0.8, 1.0)
        ]
        assert energies == sorted(energies)

    def test_breakdown_components_sum_to_total(self, googlenet_like_spec):
        events = count_layer_events(
            googlenet_like_spec, SCNN_CONFIG,
            weight_density=0.4, activation_density=0.5, output_density=0.5,
            cycles=1000,
        )
        breakdown = layer_energy(events, SCNN_CONFIG)
        assert breakdown.total == pytest.approx(sum(breakdown.components.values()))
        assert all(value >= 0 for value in breakdown.components.values())

    def test_custom_energy_table(self, googlenet_like_spec):
        free_dram = DEFAULT_ENERGY_TABLE.scaled(dram=0.0)
        events = count_layer_events(
            googlenet_like_spec, SCNN_CONFIG,
            weight_density=0.4, activation_density=0.5, output_density=0.5,
            cycles=1000,
        )
        assert (
            layer_energy(events, SCNN_CONFIG, free_dram).components["DRAM"] == 0.0
        )

    def test_energy_table_immutable_scaling(self):
        table = EnergyTable()
        scaled = table.scaled(multiply=2.0)
        assert table.multiply != 2.0
        assert scaled.multiply == 2.0


class TestAreaModel:
    def test_table_iii_reproduced(self):
        breakdown = pe_area_breakdown(SCNN_CONFIG)
        for component, paper_value in PE_AREA_BREAKDOWN.items():
            assert breakdown[component] == pytest.approx(paper_value, rel=0.05)
        assert pe_area_mm2(SCNN_CONFIG) == pytest.approx(0.123, abs=0.003)

    def test_accelerator_totals_match_table_iv(self):
        assert accelerator_area_mm2(SCNN_CONFIG) == pytest.approx(7.9, abs=0.2)
        assert accelerator_area_mm2(DCNN_CONFIG) == pytest.approx(5.9, abs=0.2)

    def test_scnn_larger_than_dense_despite_less_sram(self):
        # The paper's headline area point: sparse support costs area.
        assert accelerator_area_mm2(SCNN_CONFIG) > accelerator_area_mm2(DCNN_CONFIG)
        assert SCNN_CONFIG.activation_sram_bytes < DCNN_CONFIG.activation_sram_bytes

    def test_memories_dominate_pe_area(self):
        # Paper: memories consume 57% of PE area, multipliers only 6%.
        breakdown = pe_area_breakdown(SCNN_CONFIG)
        total = pe_area_mm2(SCNN_CONFIG)
        memories = (
            breakdown["IARAM + OARAM"]
            + breakdown["Accumulator buffers"]
            + breakdown["Weight FIFO"]
        )
        assert memories / total == pytest.approx(0.57, abs=0.05)
        assert breakdown["Multiplier array"] / total == pytest.approx(0.06, abs=0.03)

    def test_table_iv_rows(self):
        rows = {row.name: row for row in table_iv_configurations()}
        assert set(rows) == {"DCNN", "DCNN-opt", "SCNN"}
        assert rows["SCNN"].multipliers == 1024
        assert rows["DCNN"].sram_bytes == 2 * 1024 * 1024

    def test_area_scales_with_pe_resources(self):
        bigger_pe = SCNN_CONFIG.with_pe_count(16)  # 64 multipliers per PE
        assert pe_area_mm2(bigger_pe) > pe_area_mm2(SCNN_CONFIG)
