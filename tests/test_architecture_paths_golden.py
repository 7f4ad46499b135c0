"""Bitwise golden of the layer x architecture paths.

The fixture pins, compared by ``repr``:

* every :class:`~repro.arch.compare.ArchLayerMetrics` field of
  ``compare_network`` on AlexNet and GoogLeNet at seed 0, over the seven
  built-in architectures (:data:`ARCHITECTURES`, named explicitly because
  other tests register more).  Each network x architecture is one SHA-256,
  with readable network totals; the oracle cycles are pinned alongside;
* the service's ``layer`` scenario payload, as canonical JSON, for each of
  :data:`LAYER_REQUESTS`;
* the Section VI-C granularity points of ``sec6c_granularity.run()``.

Every check runs on a serial engine and on a two-worker pool.

Regenerate the fixture only when a model change is meant to move results::

    PYTHONPATH=src python tests/test_architecture_paths_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import Dict, List

import pytest

import repro.engine
from repro.arch.compare import compare_network
from repro.engine import SimulationEngine
from repro.experiments import sec6c_granularity
from repro.service.scenarios import default_registry

GOLDEN = Path(__file__).resolve().parent / "golden" / "architecture_paths.json"
NETWORKS = ("alexnet", "googlenet")
ARCHITECTURES = (
    "DCNN",
    "DCNN-opt",
    "SCNN",
    "SCNN-SparseW",
    "SCNN-SparseA",
    "SCNN-16PE",
    "SCNN-4PE",
)
#: ``(network, layer, seed)`` requests of the ``layer`` scenario.
LAYER_REQUESTS = (("vggnet", "conv5_1", 1), ("alexnet", "conv1", 0))


@lru_cache(maxsize=None)
def _golden() -> Dict:
    return json.loads(GOLDEN.read_text())


def _digest(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def comparison_records(network: str, engine: SimulationEngine) -> Dict:
    """Per-architecture digests and totals, plus the oracle cycles, of one network."""
    comparison = compare_network(network, ARCHITECTURES, seed=0, engine=engine)
    return {
        "architectures": {
            name: {
                "sha256": _digest([repr(metrics) for metrics in comparison.layers[name]]),
                "total_cycles": repr(comparison.total_cycles(name)),
                "total_energy": repr(comparison.total_energy(name)),
            }
            for name in ARCHITECTURES
        },
        "oracle_cycles": {
            "sha256": _digest([repr(cycles) for cycles in comparison.oracle_cycles]),
            "total": repr(comparison.oracle_total_cycles),
        },
    }


def layer_payload(network: str, layer: str, seed: int, engine: SimulationEngine) -> str:
    """The ``layer`` scenario's payload as canonical JSON."""
    scenario = default_registry().get("layer")
    params = scenario.validate({"network": network, "layer": layer, "seed": seed})
    payload = scenario.run(engine, params)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def granularity_points(engine: SimulationEngine) -> List[str]:
    """``sec6c_granularity.run()`` on ``engine`` (installed as the default)."""
    saved = repro.engine._default_engine
    repro.engine._default_engine = engine
    try:
        return [repr(point) for point in sec6c_granularity.run()]
    finally:
        repro.engine._default_engine = saved


@pytest.fixture(scope="module", params=[None, 2], ids=["serial", "parallel2"])
def engine(request):
    return SimulationEngine(cache_dir=False, parallel=request.param)


@pytest.mark.parametrize("network", NETWORKS)
def test_comparison_matches_golden(network, engine):
    assert comparison_records(network, engine) == _golden()["compare"][network]


@pytest.mark.parametrize("network, layer, seed", LAYER_REQUESTS)
def test_layer_scenario_payload_matches_golden(network, layer, seed, engine):
    key = f"{network}/{layer}/seed{seed}"
    assert layer_payload(network, layer, seed, engine) == _golden()["layer"][key]


def test_granularity_points_match_golden(engine):
    assert granularity_points(engine) == _golden()["sec6c"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_architecture_paths_golden.py --write")
    engine = SimulationEngine(cache_dir=False)
    document = {
        "architectures": list(ARCHITECTURES),
        "compare": {name: comparison_records(name, engine) for name in NETWORKS},
        "layer": {
            f"{network}/{layer}/seed{seed}": layer_payload(network, layer, seed, engine)
            for network, layer, seed in LAYER_REQUESTS
        },
        "sec6c": granularity_points(engine),
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
