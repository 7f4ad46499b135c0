"""Benchmark: the warm simulation engine vs a cold serial simulation.

The acceptance bar for the engine subsystem: regenerating the Figure 8
performance experiment through the warm engine (memoised,
content-addressed, optionally parallel) must be at least 3x faster than a
cold serial engine's fresh walk over the layers, with the same metrics.
"""

import time

from repro.arch.compare import network_comparison
from repro.engine import SimulationEngine
from repro.experiments import fig8_performance
from repro.experiments.common import cached_network


def _best_of(callable_, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_fig8_warm_engine_at_least_3x_faster_than_cold(warm_simulations):
    """Warm-engine Fig 8 regeneration vs a cold serial engine's fresh walk."""
    # Cold path: one fresh walk of AlexNet's layers (workload generation,
    # oracle, energy — no cache anywhere).
    started = time.perf_counter()
    cold = SimulationEngine(cache_dir=False).run_network(cached_network("alexnet"), seed=0)
    cold_seconds = time.perf_counter() - started

    # Warm path: what the experiment layer actually runs.
    engine_seconds, reports = _best_of(
        lambda: fig8_performance.run(networks=("alexnet",))
    )

    assert reports["AlexNet"].network_speedup == network_comparison(cold).speedup("SCNN")
    assert cold_seconds >= 3.0 * engine_seconds, (
        f"engine regeneration ({engine_seconds:.3f}s) not >=3x faster than "
        f"a cold serial engine ({cold_seconds:.3f}s)"
    )


def test_disk_cache_restore_beats_recomputation(tmp_path):
    """A fresh process restoring from the on-disk cache beats recomputing."""
    network = cached_network("alexnet")
    writer = SimulationEngine(cache_dir=tmp_path)
    started = time.perf_counter()
    computed = writer.run_network(network, seed=3)
    compute_seconds = time.perf_counter() - started

    reader = SimulationEngine(cache_dir=tmp_path)  # cold memory, warm disk
    started = time.perf_counter()
    restored = reader.run_network(network, seed=3)
    restore_seconds = time.perf_counter() - started

    assert reader.disk_cache.hits == 3 * len(network.layers)  # trio cells
    assert reader.disk_cache.misses == 0
    assert [layer.results for layer in restored.layers] == [
        layer.results for layer in computed.layers
    ]
    assert compute_seconds >= 3.0 * restore_seconds


def test_engine_batched_grid_throughput(benchmark, warm_simulations):
    """Warm-engine regeneration of the full three-network Figure 8."""
    reports = benchmark(fig8_performance.run)
    assert set(reports) == {"AlexNet", "GoogLeNet", "VGGNet"}
