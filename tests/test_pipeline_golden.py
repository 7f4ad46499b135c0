"""Bitwise golden of the Table I trio's simulation pipeline at seed 0.

For every conv layer of AlexNet, GoogLeNet and VGGNet the fixture pins the
SHA-256 of the pruned weights and of the synthesised activations that the
layer's recipe draws (whose ``!= 0`` the engine's masks are), the oracle's
non-zero product count and cycles, the SCNN cycle count, and the exact
``repr`` of the SCNN / DCNN / DCNN-opt energy totals, as a serial
:class:`~repro.engine.SimulationEngine` without a disk cache computes them.
Fig. 8 prints speedups to two decimals, so a different pruned set or an
oracle count off by a few products would still reproduce the figure; this
pin catches both.  ``tests/test_engine.py`` checks that a process pool and
a cache restore give the serial engine's bits.

Regenerate the fixture only when a model change is meant to move results::

    PYTHONPATH=src python tests/test_pipeline_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro.engine import SimulationEngine
from repro.nn.networks import get_network
from repro.scnn.oracle import nonzero_multiplies

from _helpers import recipe_workload

GOLDEN = Path(__file__).resolve().parent / "golden" / "trio_pipeline_seed0.json"
TRIO = ("alexnet", "googlenet", "vggnet")
ARCHITECTURES = ("SCNN", "DCNN", "DCNN-opt")


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def pipeline_records(name: str) -> List[Dict]:
    """One record per conv layer of ``name`` simulated at seed 0."""
    records = []
    simulation = SimulationEngine(cache_dir=False).run_network(get_network(name), seed=0)
    for layer in simulation.layers:
        weights, activations = recipe_workload(layer.workload)
        records.append(
            {
                "layer": layer.layer_name,
                "weights_sha256": _sha256(weights),
                "activations_sha256": _sha256(activations),
                "nonzero_multiplies": nonzero_multiplies(
                    layer.workload.spec, weights, activations
                ),
                "oracle_cycles": layer.oracle_cycles,
                "scnn_cycles": layer.scnn.cycles,
                "energy_total_repr": {
                    arch: repr(layer.energy[arch].total) for arch in ARCHITECTURES
                },
            }
        )
    return records


@pytest.mark.parametrize("name", TRIO)
def test_trio_pipeline_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert pipeline_records(name) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_pipeline_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    document = {name: pipeline_records(name) for name in TRIO}
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
