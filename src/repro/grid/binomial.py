"""Vectorised binomial ceiling-expectations for whole grids of blocks.

The analytical cycle model's inner kernel is
``E[ceil(X / width)]`` with ``X ~ Binomial(elements, density)`` — the
expected number of operand-vector fetches a compressed block needs.  The
expectation of the *ceiling* exceeds the ceiling of the expectation —
exactly the fragmentation effect that keeps the multiplier array from
reaching full occupancy on sparse blocks — so it is computed exactly from
the binomial pmf, for an entire *matrix* of ``(elements, density, width)``
triples at once.

:func:`expected_vector_counts` packs the triples into int64 keys,
deduplicates them with one 1-D sort, looks them up in a module-level memo,
and evaluates only the still-unsolved triples, grouped by block size, in
broadcast pmf passes.  Every row of a pass reduces a pmf vector of the same
length as a one-triple evaluation — and numpy's last-axis reductions of a
C-contiguous matrix are bitwise-identical to the same-length 1-D reductions
— so a triple's value never depends on which other triples share its pass
or whether the memo served it.

``log C(n, k)`` comes from one log-factorial table built from
:func:`math.lgamma`, so the model prints the same bits on every install.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List

import numpy as np

# Packed triple key: (elements * 1000 + density_milli) << 16 | width.  The
# bounds below keep the packing collision-free inside int64.
_WIDTH_BITS = 16
_MAX_WIDTH = (1 << _WIDTH_BITS) - 1
# elements * 1000 + 999 must stay below 2**(63 - _WIDTH_BITS).
_MAX_ELEMENTS = 10**11
#: Solved (elements, density_milli, width) triples, keyed by packed int64.
_solved: Dict[int, float] = {}
#: Memo bound — ~8 MB of floats; past it the memo resets rather than grows.
_SOLVED_MAX = 1 << 20


def expected_vector_counts(
    elements: np.ndarray, density_milli: np.ndarray, width: np.ndarray
) -> np.ndarray:
    """``E[ceil(X / width)]``, ``X ~ Binomial(elements, density)``, elementwise.

    Accepts integer arrays (or scalars) broadcastable against each other;
    ``density_milli`` is the density in thousandths, as
    :func:`repro.grid.evaluate.density_milli` quantises it.  Returns a float
    array of the broadcast shape.

    Distinct triples are deduplicated first (one 1-D sort over packed int64
    keys) and served from a module-level memo of solved triples; only the
    remaining triples are grouped by block size and evaluated in broadcast
    pmf passes — a warm fig7-style grid collapses to array arithmetic plus
    memo lookups, with no pmf work at all.
    """
    el, dm, w = np.broadcast_arrays(
        np.asarray(elements, dtype=np.int64),
        np.asarray(density_milli, dtype=np.int64),
        np.asarray(width, dtype=np.int64),
    )
    shape = el.shape
    el = el.reshape(-1)
    dm = dm.reshape(-1)
    w = w.reshape(-1)
    if np.any(w <= 0):
        raise ValueError("vector width must be positive")
    out = np.zeros(el.shape, dtype=np.float64)
    live = el > 0
    # Saturated densities: the block is fully dense, so the expectation is
    # the exact ceiling division.
    full = live & (dm >= 1000)
    if full.any():
        out[full] = (-(-el[full] // w[full])).astype(np.float64)
    partial = live & (dm > 0) & (dm < 1000)
    if partial.any():
        el_p = el[partial]
        dm_p = dm[partial]
        w_p = w[partial]
        if np.any(w_p > _MAX_WIDTH) or np.any(el_p > _MAX_ELEMENTS):
            raise ValueError(
                f"triple out of packing range (width <= {_MAX_WIDTH}, "
                f"elements <= {_MAX_ELEMENTS})"
            )
        keys = ((el_p * 1000 + dm_p) << np.int64(_WIDTH_BITS)) | w_p
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        values = np.empty(len(unique_keys), dtype=np.float64)
        pending: Dict[int, List[int]] = {}
        for position, key in enumerate(unique_keys.tolist()):
            solved = _solved.get(key)
            if solved is None:
                pending.setdefault((key >> _WIDTH_BITS) // 1000, []).append(
                    position
                )
            else:
                values[position] = solved
        for block, positions in pending.items():
            rows = np.asarray(positions)
            row_keys = unique_keys[rows]
            row_values = _pmf_pass(
                int(block),
                (row_keys >> _WIDTH_BITS) % 1000,
                row_keys & _MAX_WIDTH,
            )
            values[rows] = row_values
            _solved.update(zip(row_keys.tolist(), row_values.tolist()))
        if len(_solved) > _SOLVED_MAX:
            _solved.clear()
        out[partial] = values[inverse.reshape(-1)]
    return out.reshape(shape)


def clear_solved_triples() -> None:
    """Drop the solved-triple memo and the log-factorial tables (cold runs)."""
    _solved.clear()
    _log_factorials.cache_clear()


@lru_cache(maxsize=None)
def _log_factorials(size: int) -> np.ndarray:
    """``log(i!)`` for ``0 <= i < size``, each entry ``math.lgamma(i + 1)``."""
    table = np.array([math.lgamma(i + 1) for i in range(size)])
    table.flags.writeable = False
    return table


def _log_comb(n: int, k: np.ndarray) -> np.ndarray:
    """``log C(n, k)`` for an integer array ``0 <= k <= n``, from the table."""
    table = _log_factorials(1 << int(n).bit_length())
    return table[n] - table[k] - table[n - k]


def _pmf_pass(
    elements: int, density_milli: np.ndarray, width: np.ndarray
) -> np.ndarray:
    """One broadcast pmf pass over every (density, width) pair of one block size.

    The pmf is taken through logarithms for numerical stability on large
    blocks, then renormalised; each row's reductions run over the same
    ``elements + 1`` counts a one-triple pass would, in the same order.
    """
    density = density_milli / 1000.0
    counts = np.arange(elements + 1)
    log_pmf = (
        _log_comb(elements, counts)[None, :]
        + counts[None, :] * np.log(density)[:, None]
        + (elements - counts)[None, :] * np.log1p(-density)[:, None]
    )
    pmf = np.exp(log_pmf)
    pmf /= pmf.sum(axis=1, keepdims=True)
    ceilings = np.ceil(counts[None, :] / width[:, None])
    return (pmf * ceilings).sum(axis=1)
