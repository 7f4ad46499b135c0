"""Whole-grid evaluation of the analytical models.

This package evaluates the whole arch x workload x density grid as one
broadcast tensor computation.  Its kernels are the analytical SCNN cycle
model's only implementation — the one-layer entry points of
:mod:`repro.timeloop.model` are single cells of them — and they share the
dense baseline and event-count bodies with the per-layer simulator
(:mod:`repro.scnn.dcnn`, :mod:`repro.timeloop.energy`).  They serve
:meth:`repro.engine.core.SimulationEngine.sweep`,
:func:`repro.timeloop.dse.sweep`, and the Figure 7 / Table IV experiment
drivers.
"""

from repro.grid.binomial import clear_solved_triples, expected_vector_counts
from repro.grid.evaluate import (
    ENERGY_COMPONENTS,
    CycleGrid,
    GridResult,
    dense_cycle_grid,
    density_milli,
    energy_grid,
    evaluate_grid,
    scnn_cycle_grid,
)
from repro.grid.stack import ConfigLayerStack, clear_stack_cache, config_layer_stack

__all__ = [
    "ENERGY_COMPONENTS",
    "ConfigLayerStack",
    "CycleGrid",
    "GridResult",
    "clear_caches",
    "clear_solved_triples",
    "clear_stack_cache",
    "config_layer_stack",
    "dense_cycle_grid",
    "density_milli",
    "energy_grid",
    "evaluate_grid",
    "expected_vector_counts",
    "scnn_cycle_grid",
]


def clear_caches() -> None:
    """Drop every memo the grid path warms (for cold-path benchmarking).

    Clears the stacked-constant cache, the shared tiling-plan cache, the
    solved-triple memo and the log-factorial tables so a subsequent
    evaluation times the true cold path.
    """
    from repro.dataflow.tiling import _plan_layer_cached, _plane_tiles

    clear_stack_cache()
    clear_solved_triples()
    _plan_layer_cached.cache_clear()
    _plane_tiles.cache_clear()
