"""Which program functions the traced runs wrap, and the per-module metrics.

Each wrapped function is named by the module layer it belongs to; the
per-layer metrics of ``BENCHMARK.json`` are totals over those spans.  Every
target is the *lookup site* its caller uses, so wrapping it catches the
calls the workload really makes.  A target a later version of the program
no longer has is skipped and reported (see :meth:`Tracer.wrap`).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict

from tracer import OUTSIDE_LAYERS, Tracer

#: Columns of the fig8 conv-layer x stage table, in pipeline order.
STAGES = (
    "synth.weights",
    "synth.activations",
    "tiling",
    "cycles",
    "oracle",
    "dcnn",
    "energy",
    "engine",
    "compare",
)


def _synth_label(network_name, spec, *args, **kwargs) -> str:
    return f"{network_name}/{spec.name}"


def _layer_label(workload, *args, **kwargs) -> str:
    return f"{getattr(workload, 'network_name', '?')}/{workload.spec.name}"


def _count_issue_steps(tracer: Tracer, result) -> None:
    tracer.count("scnn.cycles.issue_steps", int(result.issue_steps))


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the program (import it first)."""
    wrap = tracer.wrap
    # Workload synthesis.  build_layer_workload is the engine's per-layer
    # synthesis step; its own time is engine glue.
    wrap("repro.engine.workloads:build_layer_workload", "engine.task",
         stage="engine", label=_synth_label)
    wrap("repro.nn.inference:generate_pruned_weights", "nn.pruning",
         stage="synth.weights")
    wrap("repro.nn.inference:generate_activations", "nn.inference.activations",
         stage="synth.activations")
    # Per-layer simulation: the engine task, then each model it calls.
    wrap("repro.engine.core:simulate_layer", "engine.task",
         stage="engine", label=_layer_label)
    for site in ("repro.scnn.simulator", "repro.arch.adapters", "repro.engine.core"):
        wrap(f"{site}:simulate_layer_cycles", "scnn.cycles", stage="cycles",
             on_result=_count_issue_steps)
    for function in ("plan_layer", "activation_phase_nonzeros", "weight_phase_nonzeros"):
        wrap(f"repro.scnn.cycles:{function}", "dataflow.tiling", stage="tiling")
    wrap("repro.grid.stack:plan_layer", "dataflow.tiling", stage="tiling")
    wrap("repro.scnn.simulator:nonzero_multiplies", "scnn.oracle", stage="oracle")
    wrap("repro.scnn.simulator:oracle_cycles", "scnn.oracle", stage="oracle")
    for site in ("repro.scnn.simulator", "repro.arch.adapters"):
        wrap(f"{site}:simulate_dcnn_layer", "scnn.dcnn", stage="dcnn")
    for site in ("repro.scnn.simulator", "repro.arch.compare"):
        wrap(f"{site}:layer_energy_from_densities", "timeloop.energy", stage="energy")
    # Engine entry points and the comparison view over them.
    for method in ("run_network", "run", "run_architectures", "evaluate_grid"):
        wrap(f"repro.engine.core:SimulationEngine.{method}", "engine.core", stage="engine")
    wrap("repro.engine.core:SimulationEngine.sweep", "engine.core.sweep", stage="engine")
    wrap("repro.experiments.fig8_performance:compare_network", "arch.compare",
         stage="compare")
    # The analytical grid path (Fig. 7 and DSE sweeps).
    for function in ("scnn_cycle_grid", "energy_grid", "dense_cycle_grid"):
        wrap(f"repro.grid:{function}", f"grid.{function}")
        wrap(f"repro.grid.evaluate:{function}", f"grid.{function}")
    wrap("repro.grid:evaluate_grid", "grid.evaluate")
    wrap("repro.grid.evaluate:expected_vector_counts", "grid.binomial")
    wrap("repro.grid.evaluate:config_layer_stack", "grid.stack")
    for function in ("sweep_densities", "evaluate_configs"):
        wrap(f"repro.engine.core:{function}", "timeloop.dse")
    wrap("repro.experiments.fig7_sensitivity:_run_batched", "fig7.reduce")


def _lru_hit_ratio(target: str) -> float:
    """Hit ratio of an ``functools.lru_cache`` (0 if absent or never called)."""
    import importlib

    module_name, _, attr = target.partition(":")
    try:
        info = getattr(importlib.import_module(module_name), attr).cache_info()
    except (ImportError, AttributeError):
        return 0.0
    lookups = info.hits + info.misses
    return info.hits / lookups if lookups else 0.0


def module_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-module metrics a traced in-process run can measure."""
    self_s = tracer.self_s
    steps = tracer.counters.get("scnn.cycles.issue_steps", 0)
    oracle = tracer.stats.get("scnn.oracle")
    binomial = tracer.stats.get("grid.binomial")
    return {
        "nn.pruning.self_s": self_s("nn.pruning"),
        "nn.inference.activations_self_s": self_s("nn.inference.activations"),
        "dataflow.tiling.self_s": self_s("dataflow.tiling"),
        "scnn.cycles.self_s": self_s("scnn.cycles"),
        "scnn.cycles.ns_per_issue_step": (
            self_s("scnn.cycles") * 1e9 / steps if steps else 0.0
        ),
        "scnn.oracle.self_s": self_s("scnn.oracle"),
        "scnn.oracle.first_call_s": oracle.first_s if oracle else 0.0,
        "scnn.dcnn.self_s": self_s("scnn.dcnn"),
        "timeloop.energy.self_s": self_s("timeloop.energy"),
        "engine.core.self_s": self_s("engine.core") + self_s("engine.task"),
        "engine.core.sweep_self_s": self_s("engine.core.sweep"),
        "arch.compare.self_s": self_s("arch.compare"),
        "grid.scnn_cycle_grid.self_s": self_s("grid.scnn_cycle_grid"),
        "grid.energy_grid.self_s": self_s("grid.energy_grid"),
        "grid.dense_cycle_grid.self_s": self_s("grid.dense_cycle_grid"),
        "grid.evaluate.self_s": self_s("grid.evaluate"),
        "grid.binomial.self_s": self_s("grid.binomial"),
        "grid.binomial.calls": float(binomial.calls if binomial else 0),
        "grid.stack.hit_ratio": _lru_hit_ratio("repro.grid.stack:_config_layer_stack"),
        "dataflow.tiling.plan_hit_ratio": _lru_hit_ratio(
            "repro.dataflow.tiling:_plan_layer_cached"
        ),
        "timeloop.dse.self_s": self_s("timeloop.dse"),
        "fig7.reduce_self_s": self_s("fig7.reduce"),
    }


def traced_self_total(tracer: Tracer) -> float:
    """Self time summed over every span: the wall time the trace attributes."""
    return sum(stats.self_s for stats in tracer.stats.values())


def write_stage_table(cells: Dict[tuple, float], path: Path) -> int:
    """Write the conv-layer x stage self-time table as CSV; returns row count.

    Rows are conv layers in first-seen order, plus one row for self time
    spent outside any layer; the named per-module metrics are column totals.
    """
    rows: Dict[str, Dict[str, float]] = {}
    for (label, stage), seconds in cells.items():
        rows.setdefault(label, {})[stage] = seconds
    outside = rows.pop(OUTSIDE_LAYERS, None)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["layer", *STAGES, "total"])
        for label, stages in [*rows.items(), *([(OUTSIDE_LAYERS, outside)] if outside else [])]:
            values = [stages.get(stage, 0.0) for stage in STAGES]
            writer.writerow([label, *(f"{v:.6f}" for v in values), f"{sum(values):.6f}"])
    return len(rows)
