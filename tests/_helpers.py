"""Importable test helpers.

Plain functions shared between test modules live here rather than in
``conftest.py``: pytest inserts *both* ``tests/`` and ``benchmarks/`` on
``sys.path`` (rootdir-relative), so ``from conftest import ...`` resolves to
whichever conftest was imported first and is not a stable import target.
``tests/_helpers.py`` is unambiguous.
"""

from __future__ import annotations

import contextlib
import os
import signal
import sys
import time
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

import numpy as np

import repro
from repro.arch.adapters import evaluate_layer
from repro.arch.registry import get_architecture
from repro.nn.densities import LayerSparsity
from repro.nn.inference import WorkloadHandle, generate_activations
from repro.nn.layers import ConvLayerSpec
from repro.nn.pruning import generate_pruned_weights
from repro.scnn.simulator import TRIO, layer_simulation

#: The bitwise golden of the analytical models (see test_analytical_golden.py).
ANALYTICAL_GOLDEN = Path(__file__).resolve().parent / "golden" / "analytical_models.json"


def make_workload(
    spec: ConvLayerSpec,
    weight_density: float = 0.4,
    activation_density: float = 0.5,
    seed: int | Sequence[int] = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic float weights and activations of an arbitrary spec:
    pruned weights, then activations, drawn from
    ``np.random.default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    weights = generate_pruned_weights(spec, weight_density, rng)
    return weights, generate_activations(spec, activation_density, rng)


def make_handle(
    spec: ConvLayerSpec,
    weight_density: float = 0.4,
    activation_density: float = 0.5,
    seed: int = 0,
) -> WorkloadHandle:
    """A recipe handle of an arbitrary spec: layer 0 of a network "test"."""
    return WorkloadHandle(
        "test", seed, 0, spec, LayerSparsity(weight_density, activation_density)
    )


def recipe_workload(handle: WorkloadHandle) -> Tuple[np.ndarray, np.ndarray]:
    """The float weights and activations of ``handle``'s recipe, from the
    draws its ``masks()`` make: ``default_rng([seed, index])`` at its target
    densities."""
    return make_workload(
        handle.spec,
        handle.target.weight_density,
        handle.target.activation_density,
        seed=[handle.seed, handle.index],
    )


def trio_simulation(workload: WorkloadHandle, output_density=None):
    """One layer's simulation on the paper's trio, assembled as the engine
    assembles each layer of a network."""
    trio = [get_architecture(name) for name in TRIO]
    return layer_simulation(workload, evaluate_layer(workload, trio), output_density)


def random_layer_specs(rng: np.random.Generator, count: int = 6):
    """Seeded random layer shapes covering stride, groups and 1x1 degeneracies."""
    specs = [
        # Degenerate pointwise layer on a single pixel.
        ConvLayerSpec("pt1x1", 64, 32, 1, 1, 1, 1),
        # Strided grouped conv with uneven spatial extent.
        ConvLayerSpec("odd", 48, 96, 7, 5, 3, 3, stride=2, groups=2),
    ]
    for index in range(count - len(specs)):
        groups = int(rng.choice([1, 1, 2, 4]))
        in_channels = int(rng.choice([16, 32, 48])) * groups
        specs.append(
            ConvLayerSpec(
                f"rand{index}",
                in_channels,
                int(rng.choice([16, 32, 64])),
                int(rng.integers(3, 30)),
                int(rng.integers(3, 30)),
                int(rng.choice([1, 3, 5])),
                int(rng.choice([1, 3])),
                stride=int(rng.choice([1, 1, 2])),
                groups=groups,
                padding=int(rng.choice([0, 1])),
            )
        )
    return specs


def fig7_point_record(point) -> dict:
    """One Figure 7 sweep point in the analytical golden's ``repr`` form."""
    return {
        "density": repr(point.density),
        "scnn_cycles": repr(point.scnn_cycles),
        "dcnn_cycles": repr(point.dcnn_cycles),
        "energy": {name: repr(value) for name, value in point.energy.items()},
    }


def fresh_interpreter(code: str) -> dict:
    """``subprocess`` keyword arguments that run ``code`` in a fresh
    interpreter importing this checkout's ``repro``."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    return {
        "args": [sys.executable, "-c", code],
        "env": {**os.environ, "PYTHONPATH": src},
    }


def pid_alive(pid: int) -> bool:
    """Whether process ``pid`` still runs, read from Linux's ``/proc``.

    A zombie counts as gone: it has exited, and whoever adopted it may
    never reap it.
    """
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def survivors(pids: Iterable[int], timeout: float) -> List[int]:
    """The processes of ``pids`` still running after up to ``timeout`` seconds.

    Any survivor is SIGKILLed before returning, so a failing test leaves
    nothing running.
    """
    pids = list(pids)
    deadline = time.monotonic() + timeout
    while any(map(pid_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    alive = [pid for pid in pids if pid_alive(pid)]
    for pid in alive:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    return alive
