"""Run-length compressed-sparse encoding of weight / activation blocks.

The encoding follows the SCNN paper (Section IV): the *data vector* holds the
non-zero values in raster order, and the *index vector* holds, for each data
element, the number of zeros that precede it since the previous data element.
With ``index_bits`` bits per index the maximum representable run is
``2**index_bits - 1``; a longer run of zeros is bridged by inserting an
explicit zero-valued placeholder into the data vector (the paper notes this
costs essentially nothing for realistic densities).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

DEFAULT_INDEX_BITS = 4


@dataclass(frozen=True)
class RunLengthIndex:
    """Index vector of a compressed block.

    Attributes:
        zero_runs: number of zeros preceding each stored data element.
        index_bits: bit width of each index entry (paper uses 4).
    """

    zero_runs: Tuple[int, ...]
    index_bits: int = DEFAULT_INDEX_BITS

    def __post_init__(self) -> None:
        limit = self.max_run
        for run in self.zero_runs:
            if run < 0 or run > limit:
                raise ValueError(
                    f"zero run {run} does not fit in {self.index_bits} bits"
                )

    @property
    def max_run(self) -> int:
        """Largest zero run representable by a single index entry."""
        return (1 << self.index_bits) - 1

    def __len__(self) -> int:
        return len(self.zero_runs)

    def storage_bits(self) -> int:
        """Total bits consumed by the index vector."""
        return len(self.zero_runs) * self.index_bits


@dataclass(frozen=True)
class CompressedBlock:
    """One compressed-sparse block (a weight group or an activation channel).

    The block logically covers ``block_shape`` dense elements; ``values``
    holds the stored data elements (non-zeros plus any zero placeholders) and
    ``index`` holds the zero-run lengths preceding each stored element.
    """

    block_shape: Tuple[int, ...]
    values: np.ndarray
    index: RunLengthIndex
    value_bits: int = 16

    def __post_init__(self) -> None:
        if len(self.values) != len(self.index):
            raise ValueError(
                f"data vector length {len(self.values)} does not match "
                f"index vector length {len(self.index)}"
            )
        object.__setattr__(self, "values", np.asarray(self.values))

    # -- size & statistics -------------------------------------------------

    @property
    def dense_size(self) -> int:
        size = 1
        for dim in self.block_shape:
            size *= dim
        return size

    @property
    def stored_elements(self) -> int:
        """Number of stored data elements, including zero placeholders."""
        return len(self.values)

    @property
    def nonzero_count(self) -> int:
        return int(np.count_nonzero(self.values))

    # -- decoding ----------------------------------------------------------

    def flat_offsets(self) -> np.ndarray:
        """Flat (row-major) offsets of the stored elements within the block."""
        runs = np.asarray(self.index.zero_runs, dtype=np.int64)
        if runs.size == 0:
            return runs
        return np.cumsum(runs + 1) - 1

    def decode(self) -> np.ndarray:
        """Reconstruct the dense block."""
        dense = np.zeros(self.dense_size, dtype=self.values.dtype)
        offsets = self.flat_offsets()
        if offsets.size:
            dense[offsets] = self.values
        return dense.reshape(self.block_shape)


def compress_block(
    dense: np.ndarray,
    *,
    index_bits: int = DEFAULT_INDEX_BITS,
    value_bits: int = 16,
) -> CompressedBlock:
    """Compress a dense block into the SCNN run-length format.

    Zero runs longer than the index width allows are bridged with explicit
    zero placeholders so that every gap is representable.
    """
    dense = np.asarray(dense)
    flat = dense.reshape(-1)
    max_run = (1 << index_bits) - 1

    values: List[float] = []
    runs: List[int] = []
    pending_zeros = 0
    for element in flat:
        if element == 0:
            pending_zeros += 1
            continue
        while pending_zeros > max_run:
            values.append(flat.dtype.type(0))
            runs.append(max_run)
            pending_zeros -= max_run + 1
        values.append(element)
        runs.append(pending_zeros)
        pending_zeros = 0
    # Trailing zeros need no storage: the block shape bounds the decode.

    data = np.array(values, dtype=flat.dtype) if values else np.zeros(0, dtype=flat.dtype)
    return CompressedBlock(
        block_shape=tuple(dense.shape),
        values=data,
        index=RunLengthIndex(tuple(runs), index_bits=index_bits),
        value_bits=value_bits,
    )


@dataclass
class BlockStatistics:
    """Aggregate statistics across a collection of compressed blocks."""

    dense_elements: int = 0
    stored_elements: int = 0
    nonzero_elements: int = 0
    placeholder_elements: int = 0
    data_bits: int = 0
    index_bits: int = 0
    blocks: int = 0

    def add(self, block: CompressedBlock) -> None:
        nonzero = block.nonzero_count
        self.dense_elements += block.dense_size
        self.stored_elements += block.stored_elements
        self.nonzero_elements += nonzero
        self.placeholder_elements += block.stored_elements - nonzero
        self.data_bits += block.stored_elements * block.value_bits
        self.index_bits += block.index.storage_bits()
        self.blocks += 1

    @property
    def density(self) -> float:
        if self.dense_elements == 0:
            return 0.0
        return self.nonzero_elements / self.dense_elements

    def storage_bits(self) -> int:
        return self.data_bits + self.index_bits

    def compression_ratio(self, value_bits: int = 16) -> float:
        compressed = self.storage_bits()
        if compressed == 0:
            return float("inf")
        return self.dense_elements * value_bits / compressed
