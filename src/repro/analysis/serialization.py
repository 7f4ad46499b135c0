"""JSON serialization of simulation results, for transport.

The simulation service (:mod:`repro.service`) returns results over HTTP, so
every result a scenario can produce needs a canonical JSON form.  Two rules
govern the payload builders here:

* **Lossless numbers.** Python's ``json`` round-trips ``float`` values
  exactly (``repr``-based), so a payload built on the server and parsed by
  the client compares *bitwise-equal* to one built from the same simulation
  locally.  The end-to-end tests rely on this.
* **Metrics travel, tensors don't.** A network simulation's operand tensors
  are megabytes of regenerable data; the payloads carry every metric the
  experiment drivers read (cycles, speedups, utilization, energy breakdowns)
  plus the slim workload recipe, never the raw arrays.  ``to_jsonable`` is
  the generic fallback and *will* expand small arrays (per-PE cycle counts)
  into lists — callers with large arrays should summarise first.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Sequence

import numpy as np

from repro.arch.compare import NetworkComparison, network_comparison
from repro.scnn.simulator import LayerSimulation, NetworkSimulation
from repro.timeloop.dse import DesignPoint, pareto_frontier


def to_jsonable(value: Any) -> Any:
    """Recursively reduce ``value`` to JSON-compatible Python data.

    Dataclasses become plain field dicts (underscore-prefixed fields, which
    hold in-process state, are dropped), numpy scalars become Python
    scalars, numpy arrays become nested lists, and mappings/sequences
    recurse.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
            if not field.name.startswith("_")
        }
    if isinstance(value, np.ndarray):
        return to_jsonable(value.tolist())
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def layer_payload(layer: LayerSimulation) -> Dict[str, Any]:
    """Every metric the figure drivers read from one layer simulation."""
    return {
        "name": layer.layer_name,
        "module": layer.module,
        "scnn_cycles": int(layer.scnn.cycles),
        "dcnn_cycles": int(layer.dcnn.cycles),
        "oracle_cycles": int(layer.oracle_cycles),
        "products": int(layer.scnn.operations),
        "scnn_speedup": layer.scnn_speedup,
        "oracle_speedup": layer.oracle_speedup,
        "multiplier_utilization": layer.scnn.multiplier_utilization,
        "idle_fraction": layer.scnn.idle_fraction,
        "conflict_stall_cycles": int(layer.scnn.conflict_stall_cycles),
        "weight_density": layer.workload.weight_density,
        "activation_density": layer.workload.activation_density,
        "output_density": layer.output_density,
        "energy": {
            name: {
                "total": breakdown.total,
                "components": to_jsonable(breakdown.components),
            }
            for name, breakdown in layer.energy.items()
        },
    }


def simulation_payload(simulation: NetworkSimulation) -> Dict[str, Any]:
    """The transport form of one full network simulation.

    The network-level fields are read from the trio's comparison
    (:func:`repro.arch.compare.network_comparison`).
    """
    comparison = network_comparison(simulation)
    names = comparison.architectures
    return {
        "network": comparison.network,
        "layers": [layer_payload(layer) for layer in simulation.layers],
        "modules": comparison.modules(),
        "total_cycles": {
            "SCNN": int(comparison.total_cycles("SCNN")),
            "DCNN": int(comparison.total_cycles("DCNN")),
            "oracle": int(comparison.oracle_total_cycles),
        },
        "network_speedup": comparison.speedup("SCNN"),
        "oracle_network_speedup": comparison.oracle_speedup,
        "total_energy": {name: comparison.total_energy(name) for name in names},
        "energy_ratio": {name: comparison.energy_ratio(name) for name in names},
    }


def design_point_payload(point: DesignPoint) -> Dict[str, Any]:
    """The transport form of one evaluated design point."""
    return {
        "name": point.name,
        "config": to_jsonable(point.config),
        "cycles": point.cycles,
        "energy": point.energy,
        "area_mm2": point.area_mm2,
        "energy_delay_product": point.energy_delay_product,
    }


def design_points_payload(points: Sequence[DesignPoint]) -> Dict[str, Any]:
    """A DSE sweep's design points plus its Pareto frontier, by name."""
    return {
        "points": [design_point_payload(point) for point in points],
        "pareto_frontier": [point.name for point in pareto_frontier(points)],
    }


def comparison_payload(comparison: NetworkComparison) -> Dict[str, Any]:
    """The transport form of one cross-architecture comparison.

    The payload carries per-architecture totals and ratios, the per-module
    speedup/energy breakdown, and the per-layer metric rows.
    """
    names = list(comparison.architectures)
    modules = comparison.modules()
    return {
        "network": comparison.network,
        "seed": comparison.seed,
        "baseline": comparison.baseline,
        "architectures": names,
        "total_cycles": {name: int(comparison.total_cycles(name)) for name in names},
        "speedup": {name: comparison.speedup(name) for name in names},
        "total_energy": {name: comparison.total_energy(name) for name in names},
        "energy_ratio": {name: comparison.energy_ratio(name) for name in names},
        "oracle": {
            "total_cycles": int(comparison.oracle_total_cycles),
            "speedup": comparison.oracle_speedup,
        },
        "modules": [
            {
                "module": module,
                "speedup": {
                    name: comparison.module_speedup(module, name) for name in names
                },
                "energy_ratio": {
                    name: comparison.module_energy_ratio(module, name)
                    for name in names
                },
            }
            for module in modules
        ],
        "layers": {
            name: [to_jsonable(metrics) for metrics in comparison.layers[name]]
            for name in names
        },
    }

