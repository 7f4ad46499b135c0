"""Tests for the dataflow descriptions (repro.dataflow.dataflows)."""

import pytest

from repro.dataflow.dataflows import (
    PT_IS_CP_DENSE,
    PT_IS_CP_SPARSE,
    PT_IS_DP_DENSE,
    PT_IS_DP_DENSE_OPT,
    Dataflow,
)
from repro.dataflow.loopnest import INPUT_STATIONARY_NEST


class TestDataflowDescriptions:
    def test_scnn_dataflow_is_fully_sparse(self):
        assert PT_IS_CP_SPARSE.is_sparse
        assert PT_IS_CP_SPARSE.weights_compressed
        assert PT_IS_CP_SPARSE.activations_compressed
        assert PT_IS_CP_SPARSE.skips_zero_weights
        assert PT_IS_CP_SPARSE.skips_zero_activations
        assert PT_IS_CP_SPARSE.compresses_dram_traffic

    def test_dense_dataflows_skip_nothing(self):
        for dataflow in (PT_IS_CP_DENSE, PT_IS_DP_DENSE):
            assert not dataflow.is_sparse
            assert not dataflow.weights_compressed
            assert not dataflow.activations_compressed

    def test_dcnn_opt_gates_but_does_not_skip(self):
        assert PT_IS_DP_DENSE_OPT.gates_zero_operands
        assert PT_IS_DP_DENSE_OPT.compresses_dram_traffic
        assert not PT_IS_DP_DENSE_OPT.is_sparse

    def test_all_use_input_stationary_order(self):
        for dataflow in (PT_IS_CP_DENSE, PT_IS_CP_SPARSE, PT_IS_DP_DENSE):
            assert dataflow.temporal_order == INPUT_STATIONARY_NEST

    def test_inner_operations(self):
        assert PT_IS_CP_SPARSE.inner_operation == "cartesian"
        assert PT_IS_DP_DENSE.inner_operation == "dot"

    def test_invalid_inner_operation_rejected(self):
        with pytest.raises(ValueError):
            Dataflow(
                name="broken",
                temporal_order=INPUT_STATIONARY_NEST,
                inner_operation="systolic",
                weights_compressed=False,
                activations_compressed=False,
                skips_zero_weights=False,
                skips_zero_activations=False,
                gates_zero_operands=False,
                compresses_dram_traffic=False,
            )

