"""Bitwise golden of the trio's service payloads.

The fixture pins the SHA-256 of the canonical JSON (sorted keys, compact
separators) of the ``network`` scenario payload of AlexNet and GoogLeNet,
and of the ``fig8`` and ``fig10`` scenario payloads of AlexNet, all at
seed 0.  ``tests/test_service.py`` builds both sides of its payload checks
with the current code, so only this file holds the bytes across versions.

Every check runs on a serial engine and on a two-worker pool.

Regenerate the fixture only when a model change is meant to move results::

    PYTHONPATH=src python tests/test_payload_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import Dict

import pytest

from repro.engine import SimulationEngine
from repro.service.scenarios import default_registry

GOLDEN = Path(__file__).resolve().parent / "golden" / "trio_payloads.json"
#: ``label -> (scenario, params)`` of every pinned payload.
REQUESTS = {
    "network/alexnet/seed0": ("network", {"network": "alexnet", "seed": 0}),
    "network/googlenet/seed0": ("network", {"network": "googlenet", "seed": 0}),
    "fig8/alexnet/seed0": ("fig8", {"networks": ["alexnet"], "seed": 0}),
    "fig10/alexnet/seed0": ("fig10", {"networks": ["alexnet"], "seed": 0}),
}


@lru_cache(maxsize=None)
def _golden() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text())


def payload_digest(label: str, engine: SimulationEngine) -> str:
    """SHA-256 of one pinned request's payload as canonical JSON."""
    name, params = REQUESTS[label]
    scenario = default_registry().get(name)
    payload = scenario.run(engine, scenario.validate(params))
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module", params=[None, 2], ids=["serial", "parallel2"])
def engine(request):
    return SimulationEngine(cache_dir=False, parallel=request.param)


@pytest.mark.parametrize("label", sorted(REQUESTS))
def test_payload_matches_golden(label, engine):
    assert payload_digest(label, engine) == _golden()[label]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_payload_golden.py --write")
    engine = SimulationEngine(cache_dir=False)
    document = {label: payload_digest(label, engine) for label in sorted(REQUESTS)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
