"""Tests for the post-processing unit (paper Sec. IV): the functional drain.

At the end of each output-channel group the PPU takes the drained, halo-summed
accumulators, applies ReLU and re-compresses the activations into the OARAM.
:func:`repro.scnn.functional.run_functional_layer` models that drain; these
tests pin what it reports on every fixture shape: the activated output, its
density and the run-length OARAM bits.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.arch import SCNN_CONFIG
from repro.scnn.functional import run_functional_layer
from repro.tensor.formats import CompressedActivations


@pytest.fixture(
    params=["small_workload", "strided_workload", "grouped_workload", "pointwise_workload"]
)
def workload(request):
    return request.getfixturevalue(request.param)


def drain(workload, weights=None, config=SCNN_CONFIG, **kwargs):
    """Run the workload's layer through the functional simulator."""
    return run_functional_layer(
        workload.spec,
        workload.weights if weights is None else weights,
        workload.activations,
        config,
        **kwargs,
    )


class TestDrain:
    def test_relu_applied(self, workload):
        result = drain(workload)
        assert (result.output >= 0).all()
        np.testing.assert_array_equal(
            result.output, np.maximum(result.output_pre_activation, 0.0)
        )

    def test_relu_can_be_disabled(self, workload):
        result = drain(workload, apply_relu=False)
        np.testing.assert_array_equal(result.output, result.output_pre_activation)
        assert result.output_density == (
            np.count_nonzero(result.output_pre_activation) / result.output.size
        )

    def test_relu_creates_sparsity(self, workload):
        """Zero-mean weights on non-negative inputs: ReLU clamps about half."""
        result = drain(workload)
        unactivated = drain(workload, apply_relu=False)
        assert 0.3 < result.output_density < 0.7
        assert result.output_density < unactivated.output_density

    def test_oaram_bits_are_the_compressed_output(self, workload):
        result = drain(workload)
        compressed = CompressedActivations(
            result.output, index_bits=SCNN_CONFIG.index_bits
        )
        assert result.oaram_bits == compressed.storage_bits()
        assert result.oaram_bits < result.output.size * 16

    def test_negative_outputs_drain_to_nothing(self, small_workload):
        """All-negative pre-activations: ReLU zeroes the plane, the OARAM stays empty."""
        result = drain(small_workload, weights=-np.abs(small_workload.weights))
        assert (result.output_pre_activation < 0).all()
        assert not result.output.any()
        assert result.output_density == 0.0
        assert result.oaram_bits == 0

    def test_dense_output_pays_the_index_overhead(self, small_workload):
        """All-positive pre-activations pass ReLU untouched; every value carries an index."""
        result = drain(small_workload, weights=np.abs(small_workload.weights))
        np.testing.assert_array_equal(result.output, result.output_pre_activation)
        assert result.output_density == 1.0
        assert result.oaram_bits == result.output.size * (16 + SCNN_CONFIG.index_bits)

    def test_oaram_bits_follow_the_index_width(self, small_workload):
        narrow = replace(SCNN_CONFIG, index_bits=2)
        base = drain(small_workload)
        result = drain(small_workload, config=narrow)
        np.testing.assert_array_equal(result.output, base.output)
        assert result.cycles == base.cycles
        assert result.oaram_bits == (
            CompressedActivations(result.output, index_bits=2).storage_bits()
        )
        assert result.oaram_bits != base.oaram_bits
