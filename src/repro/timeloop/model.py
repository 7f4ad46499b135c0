"""Analytical (TimeLoop-style) cycle estimates from layer shape and density.

Where the cycle-level model in :mod:`repro.scnn.cycles` consumes actual
tensors, this model consumes only the layer shape and the operand densities,
computing expected vector-fetch counts from the binomial distribution of
non-zeros within each compressed block.  It is what the Figure 7 density
sweep uses, and it doubles as a fast design-space exploration tool (PE count,
multiplier array shape, accumulator banking).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from repro.arch.registry import resolve_config
from repro.dataflow.tiling import plan_layer
from repro.nn.layers import ConvLayerSpec
from repro.scnn.accumulator import expected_conflict_cycles
from repro.scnn.config import AcceleratorConfig, DCNN_CONFIG, SCNN_CONFIG
from repro.scnn.dcnn import simulate_dcnn_layer


@dataclass(frozen=True)
class AnalyticalLayerEstimate:
    """Analytical estimate of one layer on one accelerator."""

    spec_name: str
    config_name: str
    cycles: float
    products: float
    multiplier_utilization: float
    idle_fraction: float


@lru_cache(maxsize=4096)
def _expected_vector_count(elements: int, density_milli: int, width: int) -> float:
    """E[ceil(X / width)] where X ~ Binomial(elements, density).

    The expectation of the *ceiling* exceeds the ceiling of the expectation —
    exactly the fragmentation effect that keeps the multiplier array from
    reaching full occupancy on sparse blocks — so it is computed exactly from
    the binomial pmf.  ``density_milli`` is the density in thousandths so the
    cache key stays hashable and small.
    """
    if elements <= 0:
        return 0.0
    density = density_milli / 1000.0
    if density <= 0.0:
        return 0.0
    if density >= 1.0:
        return float(-(-elements // width))
    counts = np.arange(elements + 1)
    # Binomial pmf via logarithms for numerical stability on large blocks.
    log_pmf = (
        _log_comb(elements, counts)
        + counts * np.log(density)
        + (elements - counts) * np.log1p(-density)
    )
    pmf = np.exp(log_pmf)
    pmf /= pmf.sum()
    return float((pmf * np.ceil(counts / width)).sum())


@lru_cache(maxsize=None)
def _scipy_gammaln():
    """scipy's ``gammaln``, or ``None`` without scipy.

    Looked up on first use rather than at import: scipy (and what it pulls
    in) costs a cold ``import repro`` about 0.3 s, and Fig. 8 never needs it.
    """
    try:
        from scipy.special import gammaln
    except ImportError:  # pragma: no cover - exercised only without scipy
        return None
    return gammaln


def _log_comb(n: int, k: np.ndarray) -> np.ndarray:
    """log C(n, k) via log-gamma (scipy when present, math.lgamma otherwise)."""
    gammaln = _scipy_gammaln()
    if gammaln is not None:
        return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    lgamma = np.vectorize(math.lgamma, otypes=[np.float64])
    return lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)


def density_milli(density: float) -> int:
    """Quantise a validated density in (0, 1] to thousandths, floored at 1.

    The floor matters: a nonzero density below 0.0005 would otherwise round
    to 0 and :func:`_expected_vector_count` would report zero expected
    fetches — zero cycles for real work.  One milli is the model's density
    resolution, so near-zero densities saturate at it instead of vanishing.
    """
    return max(1, int(round(density * 1000)))


def estimate_scnn_layer(
    spec: ConvLayerSpec,
    *,
    weight_density: float,
    activation_density: float,
    config: Union[AcceleratorConfig, str] = SCNN_CONFIG,
) -> AnalyticalLayerEstimate:
    """Expected SCNN cycles for one layer at the given operand densities.

    ``config`` accepts a registered architecture name (resolved through
    :mod:`repro.arch.registry`) in place of a config object.
    """
    config = resolve_config(config)
    if not 0.0 < weight_density <= 1.0:
        raise ValueError(f"weight_density must be in (0, 1], got {weight_density}")
    if not 0.0 < activation_density <= 1.0:
        raise ValueError(
            f"activation_density must be in (0, 1], got {activation_density}"
        )
    pe_rows, pe_cols = config.pe_grid
    plan = plan_layer(
        spec,
        num_pes=config.num_pes,
        group_size=config.output_channel_group,
        pe_rows=pe_rows,
        pe_cols=pe_cols,
    )
    f_width = config.multipliers_f
    i_width = config.multipliers_i
    c_connected = spec.in_channels // spec.groups
    num_groups = plan.num_groups

    # Strided layers decompose the Cartesian product into stride^2 phase
    # sub-streams (each activation phase pairs with exactly one weight
    # phase); the expected fetch counts below are per phase sub-block.
    phases = spec.stride * spec.stride

    # Expected weight-vector fetches per (group, channel, phase) block.
    group_channels = min(config.output_channel_group, spec.out_channels)
    weight_block = group_channels * spec.filter_height * spec.filter_width
    weight_phase_block = max(1, int(round(weight_block / phases)))
    wd_milli = density_milli(weight_density)
    ad_milli = density_milli(activation_density)
    weight_vectors = _expected_vector_count(weight_phase_block, wd_milli, f_width)
    weight_nnz = weight_phase_block * weight_density

    # Expected activation-vector fetches per (PE, channel, phase) block, which
    # vary with the (possibly uneven) tile sizes.
    tile_sizes = np.array([tile.size for tile in plan.input_tiles], dtype=np.int64)
    phase_sizes = np.maximum(tile_sizes // phases, (tile_sizes > 0).astype(np.int64))
    act_vectors = np.array(
        [
            _expected_vector_count(int(size), ad_milli, i_width) if size else 0.0
            for size in phase_sizes
        ]
    )
    act_nnz = phase_sizes * activation_density

    stall_per_step = expected_conflict_cycles(
        f_width * i_width, config.accumulator_banks
    )

    # Per (PE, group) busy cycles; every connected channel contributes, for
    # each stride phase, the product of its expected fetch counts.
    steps_per_pe_group = c_connected * phases * act_vectors * weight_vectors
    busy_per_pe_group = steps_per_pe_group * (1.0 + stall_per_step)
    busy_per_pe_group = busy_per_pe_group + (steps_per_pe_group > 0) * (
        config.drain_overhead_cycles
    )
    group_cycles = busy_per_pe_group.max() + config.barrier_overhead_cycles
    total_cycles = group_cycles * num_groups

    products_per_pe_group = c_connected * phases * act_nnz * weight_nnz
    total_products = products_per_pe_group.sum() * num_groups
    busy_total = busy_per_pe_group.sum() * num_groups
    utilization = 0.0
    if total_cycles > 0:
        utilization = total_products / (
            total_cycles * plan.num_pes * config.multipliers_per_pe
        )
    idle = 0.0
    if total_cycles > 0:
        idle = max(0.0, 1.0 - busy_total / (total_cycles * plan.num_pes))
    return AnalyticalLayerEstimate(
        spec_name=spec.name,
        config_name=config.name,
        cycles=float(total_cycles),
        products=float(total_products),
        multiplier_utilization=float(utilization),
        idle_fraction=float(idle),
    )


def estimate_dense_layer(
    spec: ConvLayerSpec,
    config: Union[AcceleratorConfig, str] = DCNN_CONFIG,
) -> AnalyticalLayerEstimate:
    """Expected dense-baseline cycles (density independent)."""
    config = resolve_config(config)
    result = simulate_dcnn_layer(spec, config)
    return AnalyticalLayerEstimate(
        spec_name=spec.name,
        config_name=config.name,
        cycles=float(result.cycles),
        products=float(result.multiplies),
        multiplier_utilization=result.multiplier_utilization,
        idle_fraction=result.idle_fraction,
    )


def estimate_oracle_cycles(
    spec: ConvLayerSpec,
    *,
    weight_density: float,
    activation_density: float,
    config: Union[AcceleratorConfig, str] = SCNN_CONFIG,
) -> float:
    """Oracle cycles at the given densities (work / peak throughput)."""
    config = resolve_config(config)
    products = spec.multiplies * weight_density * activation_density
    return max(1.0, products / config.total_multipliers)
