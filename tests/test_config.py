"""Tests for the accelerator configurations of Tables II and IV (repro.arch)."""

from dataclasses import replace

import pytest

from repro.arch import DCNN_CONFIG, DCNN_OPT_CONFIG, SCNN_CONFIG


class TestTableIIParameters:
    """The default SCNN instance must match the paper's Table II."""

    def test_pe_count_and_multipliers(self):
        assert SCNN_CONFIG.num_pes == 64
        assert SCNN_CONFIG.multipliers_per_pe == 16
        assert SCNN_CONFIG.total_multipliers == 1024
        assert SCNN_CONFIG.pe_grid == (8, 8)

    def test_multiplier_array_shape(self):
        assert (SCNN_CONFIG.multipliers_f, SCNN_CONFIG.multipliers_i) == (4, 4)

    def test_accumulator_banking_rule(self):
        # Paper: A = 2 x F x I "sufficiently reduces accumulator bank contention".
        assert SCNN_CONFIG.accumulator_banks == 2 * SCNN_CONFIG.multipliers_per_pe
        assert SCNN_CONFIG.accumulator_bank_entries == 32

    def test_ram_sizes(self):
        assert SCNN_CONFIG.iaram_bytes == 10 * 1024
        assert SCNN_CONFIG.oaram_bytes == 10 * 1024
        assert SCNN_CONFIG.weight_fifo_entries == 50
        assert SCNN_CONFIG.weight_fifo_bytes == 500

    def test_datapath_widths(self):
        assert SCNN_CONFIG.multiplier_bits == 16
        assert SCNN_CONFIG.accumulator_bits == 24
        assert SCNN_CONFIG.index_bits == 4

    def test_activation_storage_totals(self):
        total_mb = SCNN_CONFIG.activation_sram_bytes / (1024 * 1024)
        assert total_mb == pytest.approx(1.25, abs=0.05)
        index_mb = SCNN_CONFIG.activation_index_bytes / (1024 * 1024)
        assert 0.15 <= index_mb <= 0.35

    def test_peak_throughput(self):
        assert SCNN_CONFIG.peak_ops_per_cycle == 1024


class TestDenseConfigs:
    def test_same_multiplier_provisioning(self):
        assert DCNN_CONFIG.total_multipliers == SCNN_CONFIG.total_multipliers
        assert DCNN_OPT_CONFIG.total_multipliers == SCNN_CONFIG.total_multipliers

    def test_two_megabyte_sram(self):
        assert DCNN_CONFIG.activation_sram_bytes == 2 * 1024 * 1024
        assert DCNN_CONFIG.activation_index_bytes == 0

    def test_sparsity_flags(self):
        assert SCNN_CONFIG.is_sparse
        assert not DCNN_CONFIG.is_sparse
        assert not DCNN_OPT_CONFIG.is_sparse
        assert DCNN_OPT_CONFIG.dataflow.gates_zero_operands


class TestValidation:
    def test_non_positive_parameters_rejected(self):
        with pytest.raises(ValueError):
            replace(SCNN_CONFIG, num_pes=0)
        with pytest.raises(ValueError):
            replace(SCNN_CONFIG, multipliers_f=-1)


class TestPeCountRescaling:
    @pytest.mark.parametrize("num_pes", [64, 16, 4])
    def test_total_multipliers_preserved(self, num_pes):
        config = SCNN_CONFIG.with_pe_count(num_pes)
        assert config.total_multipliers == 1024
        assert config.num_pes == num_pes

    def test_four_pe_configuration(self):
        config = SCNN_CONFIG.with_pe_count(4)
        assert config.multipliers_per_pe == 256
        assert config.accumulator_banks == 512
        assert config.pe_grid == (2, 2)

    def test_aspect_ratio_biased_towards_f(self):
        config = SCNN_CONFIG.with_pe_count(8)
        assert config.multipliers_f >= config.multipliers_i

    def test_uneven_split_rejected(self):
        with pytest.raises(ValueError):
            SCNN_CONFIG.with_pe_count(3)

    def test_name_reflects_pe_count(self):
        assert "16PE" in SCNN_CONFIG.with_pe_count(16).name
