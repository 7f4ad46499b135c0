"""Compressed-sparse tensor substrate used by the SCNN dataflow.

The SCNN paper (Section IV) encodes weights and activations with a simple
run-length scheme: a data vector of non-zero values plus an index vector
recording the number of zeros preceding each value.  Four bits per index
allow up to 15 zeros between consecutive non-zeros; longer gaps are bridged
with explicit zero-valued placeholders.

Weights are compressed at the granularity of one *output-channel group*
(``Kc x R x S`` values for one input channel), activations at the granularity
of one input channel of one PE tile (``Wt x Ht`` values).
"""

from repro.tensor.compressed import (
    CompressedBlock,
    RunLengthIndex,
    compress_block,
)
from repro.tensor.coordinates import output_coordinate
from repro.tensor.formats import CompressedActivations, CompressedWeights

__all__ = [
    "CompressedActivations",
    "CompressedBlock",
    "CompressedWeights",
    "RunLengthIndex",
    "compress_block",
    "output_coordinate",
]
