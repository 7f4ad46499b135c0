"""Area model (paper Tables III and IV).

The paper obtains post-synthesis area in TSMC 16nm FinFET from a SystemC +
HLS + Design Compiler flow.  We reproduce the *model* layer of that flow: the
per-structure area constants of Table III and the scaling rules TimeLoop uses
to size the dense baselines (RAM area proportional to capacity, ALU and
interconnect area proportional to count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Union

from repro.arch.registry import SCNN_CONFIG, default_registry, resolve_config
from repro.arch.spec import AcceleratorConfig

# Table III: SCNN PE area breakdown (mm^2, TSMC 16nm).
PE_AREA_BREAKDOWN: Dict[str, float] = {
    "IARAM + OARAM": 0.031,
    "Weight FIFO": 0.004,
    "Multiplier array": 0.008,
    "Scatter network": 0.026,
    "Accumulator buffers": 0.036,
    "Other": 0.019,
}

# Per-unit constants derived from the Table III entries, used to scale
# non-default configurations (granularity study, ablations).
_SRAM_MM2_PER_KB = PE_AREA_BREAKDOWN["IARAM + OARAM"] / 20.0
_FIFO_MM2_PER_KB = PE_AREA_BREAKDOWN["Weight FIFO"] / 0.5
_MULTIPLIER_MM2_PER_ALU = PE_AREA_BREAKDOWN["Multiplier array"] / 16.0
_XBAR_MM2_PER_PORT_PRODUCT = PE_AREA_BREAKDOWN["Scatter network"] / (16.0 * 32.0)
_ACCUMULATOR_MM2_PER_KB = PE_AREA_BREAKDOWN["Accumulator buffers"] / 6.0
_OTHER_MM2 = PE_AREA_BREAKDOWN["Other"]

# The dense baseline's Table IV area (5.9 mm^2 for 64 PEs + 2MB SRAM) implies
# a per-PE dense area once the shared SRAM is separated out.
_DENSE_SRAM_MM2_PER_MB = 1.55
_DENSE_PE_MM2 = (5.9 - 2.0 * _DENSE_SRAM_MM2_PER_MB) / 64.0


def pe_area_breakdown(
    config: Union[AcceleratorConfig, str] = SCNN_CONFIG
) -> Dict[str, float]:
    """Per-structure area of one PE of ``config`` (mm^2).

    ``config`` accepts a registered architecture name (resolved through
    :mod:`repro.arch.registry`) in place of a config object.
    """
    config = resolve_config(config)
    if not config.is_sparse:
        return {"PE (dense datapath + RAM slice)": _DENSE_PE_MM2}
    activation_kb = (config.iaram_bytes + config.oaram_bytes) / 1024.0
    accumulator_kb = (
        config.accumulator_banks
        * config.accumulator_bank_entries
        * config.accumulator_bits
        / 8.0
        / 1024.0
    ) * 2.0  # double buffered
    return {
        "IARAM + OARAM": activation_kb * _SRAM_MM2_PER_KB,
        "Weight FIFO": (config.weight_fifo_bytes / 1024.0) * _FIFO_MM2_PER_KB,
        "Multiplier array": config.multipliers_per_pe * _MULTIPLIER_MM2_PER_ALU,
        "Scatter network": (
            config.multipliers_per_pe
            * config.accumulator_banks
            * _XBAR_MM2_PER_PORT_PRODUCT
        ),
        "Accumulator buffers": accumulator_kb * _ACCUMULATOR_MM2_PER_KB,
        "Other": _OTHER_MM2,
    }


def pe_area_mm2(config: Union[AcceleratorConfig, str] = SCNN_CONFIG) -> float:
    """Total area of one PE (mm^2)."""
    return sum(pe_area_breakdown(config).values())


def accelerator_area_mm2(config: Union[AcceleratorConfig, str]) -> float:
    """Total accelerator area (mm^2): PEs plus any shared dense SRAM."""
    config = resolve_config(config)
    area = config.num_pes * pe_area_mm2(config)
    if config.dense_sram_bytes:
        area += (config.dense_sram_bytes / (1024.0 * 1024.0)) * _DENSE_SRAM_MM2_PER_MB
    return area


@dataclass(frozen=True)
class ConfigurationRow:
    """One row of Table IV."""

    name: str
    num_pes: int
    multipliers: int
    sram_bytes: int
    area_mm2: float


def table_iv_configurations() -> List[ConfigurationRow]:
    """The accelerator configurations of Table IV, from the registry.

    Iterates the architecture registry's ``table4``-tagged specs in
    registration order (DCNN, DCNN-opt, SCNN — the paper's presentation
    order), so registering a new Table IV variant extends this table without
    code changes.
    """
    rows = []
    for spec in default_registry():
        if "table4" not in spec.tags:
            continue
        config = spec.config
        rows.append(
            ConfigurationRow(
                name=config.name,
                num_pes=config.num_pes,
                multipliers=config.total_multipliers,
                sram_bytes=config.activation_sram_bytes,
                area_mm2=accelerator_area_mm2(config),
            )
        )
    return rows
