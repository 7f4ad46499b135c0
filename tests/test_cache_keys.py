"""Cache keys are pinned byte for byte.

A cache directory written by one version of the engine must keep answering
the next one under the same numpy, so the bytes of every key are part of
the contract:

* the golden (``tests/golden/cache_keys.json``) holds the ``design-point``
  keys of ``[SCNN] + default_candidates()`` on AlexNet and GoogLeNet, and the
  ``architecture-layer`` keys of one synthetic :class:`WorkloadHandle` and
  one raw :class:`LayerWorkload` on every architecture registered when it
  was written.  It records the numpy version it was written under, and every
  test here computes keys with that version in place of the installed one,
  so the golden holds under any numpy;
* a network simulation is cached as its trio's ``architecture-layer``
  cells: ``run_network`` looks up exactly the keys ``run_architectures``
  looks up for the trio on the network's recipe handles;
* a dataflow's temporal loop order is part of both kinds of key;
* a property test holds :func:`fingerprint` to the one-document reference
  below, for generated parts passed raw and pre-rendered by
  :func:`canonical`.

Regenerate the golden only when a change is meant to orphan every cache
entry (a :data:`SCHEMA_VERSION` bump, or a new field in the key document)::

    PYTHONPATH=src python tests/test_cache_keys.py --write
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.arch.registry import (
    SCNN_CONFIG,
    available_architectures,
    get_architecture,
)
from repro.dataflow.loopnest import LoopNest
from repro.engine import SCHEMA_VERSION, SimulationEngine, WorkloadHandle, cache
from repro.engine.cache import canonical, describe, fingerprint
from repro.scnn.simulator import TRIO
from repro.timeloop.dse import default_candidates
from repro.workloads.profiles import get_profile
from repro.workloads.registry import resolve_network, resolve_workload

from _helpers import recipe_workload

GOLDEN = Path(__file__).resolve().parent / "golden" / "cache_keys.json"
#: ``(workload, density profile or None)`` of each network simulation whose
#: lookups are checked against its trio cells.
NETWORKS = (
    ("alexnet", None),
    ("googlenet", None),
    ("vggnet", None),
    ("resnet-style-13", "decay-90-30"),
)
DSE_NETWORKS = ("alexnet", "googlenet")
#: ``(workload, layer index)`` of the architecture-layer keys.
LAYER = ("plain-cnn-8", 1)


@lru_cache(maxsize=None)
def _golden() -> Dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(autouse=True)
def recorded_numpy(monkeypatch):
    """Key everything under the numpy version the golden was written with."""
    monkeypatch.setattr(cache, "NUMPY_VERSION", _golden()["numpy"])


class KeyRecorder(SimulationEngine):
    """An engine that records every key its entry points look up and
    computes nothing (each value comes back ``None``)."""

    def __init__(self) -> None:
        super().__init__(cache_dir=False)
        self.keys: List[str] = []

    def _cached(self, keys, compute):
        self.keys.extend(keys)
        return [None] * len(keys)


class LookupStopped(Exception):
    """Raised by :class:`FirstLookup` once the keys are recorded."""


class FirstLookup(KeyRecorder):
    """Records the keys of the first cache lookup, then stops its caller
    (which would otherwise assemble results from the ``None`` values)."""

    def _cached(self, keys, compute):
        super()._cached(keys, compute)
        raise LookupStopped


def design_point_keys(network: str) -> List[str]:
    engine = KeyRecorder()
    engine.sweep([SCNN_CONFIG, *default_candidates()], network)
    return engine.keys


def layer_workloads():
    """A synthetic handle (no tensors) and the raw workload of its recipe."""
    name, index = LAYER
    network, sparsity = resolve_workload(name)
    spec = network.layers[index]
    handle = WorkloadHandle(name, 0, index, spec, sparsity[spec.name])
    return handle, recipe_workload(handle)


def architecture_layer_keys(architectures: List[str]) -> Dict[str, List[str]]:
    engine = KeyRecorder()
    handle, raw = layer_workloads()
    engine.run_architectures([handle, raw], architectures)
    width = len(architectures)
    return {"handle": engine.keys[:width], "raw": engine.keys[width:]}


def test_schema_version():
    assert SCHEMA_VERSION == _golden()["schema"] == 3


@pytest.mark.parametrize("name, profile", NETWORKS)
def test_run_network_looks_up_its_trio_cells(name, profile):
    network = resolve_network(name)
    if profile is None:
        sparsity, table = None, resolve_workload(name)[1]
    else:
        sparsity = table = get_profile(profile).table(network)
    engine = FirstLookup()
    with pytest.raises(LookupStopped):
        engine.run_network(name, seed=0, sparsity=sparsity)
    recipes = [
        WorkloadHandle(network.name, 0, index, spec, table[spec.name])
        for index, spec in enumerate(network.layers)
    ]
    cells = KeyRecorder()
    cells.run_architectures(recipes, TRIO)
    assert engine.keys == cells.keys
    assert len(set(engine.keys)) == len(TRIO) * len(network.layers)


@pytest.mark.parametrize("network", DSE_NETWORKS)
def test_design_point_keys(network):
    assert design_point_keys(network) == _golden()["design-point"][network]


def test_architecture_layer_keys():
    golden = _golden()["architecture-layer"]
    keys = architecture_layer_keys(golden["architectures"])
    assert keys == {"handle": golden["handle"], "raw": golden["raw"]}


#: A loop order other than the input-stationary one every dataflow uses.
REVERSED_ORDER = LoopNest(("S", "R", "H", "W", "C", "K", "N"))


def _reordered(config):
    """``config`` with its dataflow's temporal loop order reversed."""
    dataflow = replace(config.dataflow, temporal_order=REVERSED_ORDER)
    return replace(config, dataflow=dataflow)


def test_temporal_order_enters_the_architecture_key():
    """The dataflow's loop nest is rendered into every architecture-layer
    key: a spec that differs only in its temporal order is another cell."""
    spec = get_architecture("SCNN")
    reordered = replace(spec, config=_reordered(spec.config))
    engine = KeyRecorder()
    engine.run_architectures([layer_workloads()[0]], [spec, reordered])
    assert len(set(engine.keys)) == 2


def test_temporal_order_enters_the_design_point_key():
    engine = KeyRecorder()
    engine.sweep([SCNN_CONFIG, _reordered(SCNN_CONFIG)], "alexnet")
    assert len(set(engine.keys)) == 2


# -- fingerprint against the one-document reference ----------------------------


def reference_fingerprint(kind: str, **parts) -> str:
    """The key as one JSON document: the definition part-wise assembly keeps."""
    document = {
        "schema": SCHEMA_VERSION,
        "numpy": cache.NUMPY_VERSION,
        "kind": kind,
        "parts": describe(parts),
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Leaf:
    name: str
    value: object


@dataclass(frozen=True)
class Pair:
    left: object
    right: object


@pytest.mark.parametrize(
    "value, expected",
    [
        (0.1, "0.1"),
        (-0.0, "-0.0"),
        (math.inf, "inf"),
        (np.float64(0.1), 0.1),
        (np.int64(-3), -3),
        (np.bool_(True), True),
        (np.str_("ü"), "ü"),
        (None, None),
        (7, 7),
        ("ü", "ü"),
        ((1, [2.5]), [1, ["2.5"]]),
        ({2: "b", 1: 0.5}, {"1": "0.5", "2": "b"}),
        (Pair(1, "a"), {
            "__dataclass__": "Pair", "fields": {"left": 1, "right": "a"},
        }),
        (np.arange(3, dtype=np.int64), {
            "__ndarray__": hashlib.sha256(np.arange(3, dtype=np.int64).tobytes()).hexdigest(),
            "shape": [3],
            "dtype": "int64",
        }),
    ],
    ids=lambda value: type(value).__name__,
)
def test_describe_maps_each_kind_of_value(value, expected):
    assert describe(value) == expected


@pytest.mark.parametrize("value", [Pair, object(), b"bytes", 1j])
def test_describe_rejects_what_it_cannot_fingerprint(value):
    with pytest.raises(TypeError):
        describe(value)


SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
FLOATS = st.floats() | SPECIAL_FLOATS | st.just(1e-300)
NUMPY_SCALARS = st.one_of(
    FLOATS.map(np.float64),
    (st.floats(width=32) | SPECIAL_FLOATS).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.booleans().map(np.bool_),
    st.text(max_size=4).map(np.str_),
)
NUMPY_ARRAYS = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.float32, np.int64, np.uint8, np.bool_]),
    shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    FLOATS,
    st.text(),  # non-ASCII included
    NUMPY_SCALARS,
    NUMPY_ARRAYS,
)
VALUES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=3),
        st.builds(Leaf, st.text(max_size=6), children),
        st.builds(Pair, children, children),
    ),
    max_leaves=12,
)
PART_NAMES = st.text(min_size=1, max_size=8).filter(lambda name: name != "kind")


@settings(max_examples=200, deadline=None)
@given(
    kind=st.text(max_size=12),
    parts=st.dictionaries(PART_NAMES, st.tuples(VALUES, st.booleans()), max_size=5),
)
def test_fingerprint_matches_the_one_document_reference(kind, parts):
    raw = {name: value for name, (value, _) in parts.items()}
    mixed = {
        name: canonical(value) if rendered else value
        for name, (value, rendered) in parts.items()
    }
    expected = reference_fingerprint(kind, **raw)
    assert fingerprint(kind, **raw) == expected
    assert fingerprint(kind, **mixed) == expected


def test_two_numpy_versions_give_two_keys(monkeypatch):
    parts = {"network": "alexnet", "seed": 0}
    monkeypatch.setattr(cache, "NUMPY_VERSION", "2.4.6")
    before = fingerprint("architecture-layer", **parts)
    monkeypatch.setattr(cache, "NUMPY_VERSION", "2.5.0")
    assert fingerprint("architecture-layer", **parts) != before


@pytest.mark.parametrize(
    "nested",
    [
        lambda part: [part],
        lambda part: {"inner": part},
        lambda part: Pair(part, 1),
    ],
    ids=["list", "dict", "dataclass"],
)
def test_only_top_level_parts_may_be_pre_rendered(nested):
    part = canonical({"layers": [1, 2]})
    with pytest.raises(TypeError):
        fingerprint("unit", value=nested(part))
    with pytest.raises(TypeError):
        canonical(nested(part))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cache_keys.py --write")
    architectures = available_architectures()
    document = {
        "schema": SCHEMA_VERSION,
        "numpy": cache.NUMPY_VERSION,
        "design-point": {name: design_point_keys(name) for name in DSE_NETWORKS},
        "architecture-layer": {
            "architectures": architectures,
            **architecture_layer_keys(architectures),
        },
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
