"""Benchmark: raw throughput of the simulators themselves.

Not a paper figure — this tracks the cost of the reproduction's own tooling:
how long a full-network cycle-level simulation and a single-layer
element-exact functional simulation take.
"""

import numpy as np

from repro.arch.compare import network_comparison
from repro.engine import SimulationEngine
from repro.nn.inference import generate_activations
from repro.nn.layers import ConvLayerSpec
from repro.nn.networks import alexnet
from repro.nn.pruning import generate_pruned_weights
from repro.scnn.cycles import simulate_layer_cycles
from repro.scnn.functional import run_functional_layer


def test_alexnet_cycle_level_simulation(benchmark):
    """Full AlexNet workload generation + SCNN/DCNN/oracle/energy simulation
    on a serial engine without a cache."""
    result = benchmark.pedantic(
        lambda: SimulationEngine(cache_dir=False).run_network(alexnet(), seed=1),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    assert network_comparison(result).speedup("SCNN") > 1.5


def test_single_layer_cycle_model(benchmark):
    """The vectorised cycle model on a mid-sized VGG-like layer."""
    spec = ConvLayerSpec("conv3_2", 256, 256, 56, 56, 3, 3, padding=1)
    rng = np.random.default_rng(0)
    weights = generate_pruned_weights(spec, 0.32, rng)
    activations = generate_activations(spec, 0.44, rng)
    result = benchmark(simulate_layer_cycles, spec, weights, activations)
    assert result.cycles > 0


def test_single_layer_functional_simulation(benchmark):
    """The element-exact functional simulator on a small layer."""
    spec = ConvLayerSpec("small", 16, 16, 14, 14, 3, 3, padding=1)
    rng = np.random.default_rng(0)
    weights = generate_pruned_weights(spec, 0.4, rng)
    activations = generate_activations(spec, 0.45, rng)
    result = benchmark.pedantic(
        lambda: run_functional_layer(spec, weights, activations),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    assert result.cycles > 0
