"""Tests for the 7-dimensional loop nest (repro.dataflow.loopnest)."""

import pytest

from repro.dataflow.loopnest import (
    INPUT_STATIONARY_NEST,
    LOOP_VARIABLES,
    LoopNest,
)


class TestLoopNest:
    def test_loop_variables_constant(self):
        assert LOOP_VARIABLES == ("N", "K", "C", "W", "H", "R", "S")

    def test_input_stationary_order(self):
        """PT-IS-CP's temporal order (Section III-A): K, R and S innermost."""
        assert INPUT_STATIONARY_NEST.order == ("N", "C", "W", "H", "K", "R", "S")

    def test_invalid_permutation_rejected(self):
        with pytest.raises(ValueError):
            LoopNest(("N", "K", "C", "W", "H", "R", "R"))
        with pytest.raises(ValueError):
            LoopNest(("N", "K"))
