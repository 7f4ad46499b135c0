"""SCNN core: functional and cycle-level models.

This package implements the paper's primary contribution (the SCNN / DCNN /
DCNN-opt configurations of Tables II and IV it runs on live in
:mod:`repro.arch.registry`):

* :mod:`repro.scnn.functional` — an element-exact functional simulator of the
  PT-IS-CP-sparse dataflow (Cartesian-product multiplier array, coordinate
  computation, scatter into banked accumulators, halo handling, and the PPU
  drain: ReLU, then re-compression into the OARAM), validated against the
  dense reference convolution.
* :mod:`repro.scnn.cycles` — the vectorised cycle-level performance model
  used for the per-layer results (Figures 8 and 9).
* :mod:`repro.scnn.dcnn` — the dense DCNN / DCNN-opt baseline performance
  model (PT-IS-DP-dense).
* :mod:`repro.scnn.oracle` — the SCNN(oracle) upper bound.
* :mod:`repro.scnn.simulator` — layer- and network-level drivers combining
  the above into the result records the experiments consume.
"""

from repro.scnn.cycles import LayerCycleResult, simulate_layer_cycles
from repro.scnn.dcnn import simulate_dcnn_layer
from repro.scnn.functional import FunctionalResult, run_functional_layer
from repro.scnn.oracle import oracle_cycles
from repro.scnn.simulator import (
    LayerSimulation,
    NetworkSimulation,
    simulate_layer,
    simulate_network,
)

__all__ = [
    "FunctionalResult",
    "LayerCycleResult",
    "LayerSimulation",
    "NetworkSimulation",
    "oracle_cycles",
    "run_functional_layer",
    "simulate_dcnn_layer",
    "simulate_layer",
    "simulate_layer_cycles",
    "simulate_network",
]
