"""Benchmark: synthetic-workload simulation throughput.

The workload registry widens the evaluated space beyond the paper's three
networks; this harness keeps the cost of that flexibility visible.  Landmark
expectations: building the whole catalogue of networks is effectively free
(pure shape algebra, no tensors), a synthetic network's full simulation fits
comfortably inside the AlexNet budget, and warm-engine re-runs of a
synthetic workload are served from the memo table at interactive speed.
"""

import time

from repro.arch.compare import network_comparison
from repro.engine import SimulationEngine
from repro.workloads import default_registry, get_workload


def test_catalogue_builds_are_pure_shape_algebra(benchmark):
    """Building every registered network (specs only, no tensors) is cheap."""

    def build_all():
        return [spec.build() for spec in default_registry()]

    networks = benchmark(build_all)
    assert len(networks) >= 8
    started = time.perf_counter()
    build_all()
    assert time.perf_counter() - started < 0.5, "catalogue build must be ~free"


def test_synthetic_simulation_fits_the_alexnet_budget():
    """Cold plain-cnn-8 simulation is no slower than cold AlexNet."""
    engine = SimulationEngine(cache_dir=False)
    started = time.perf_counter()
    engine.run_network("plain-cnn-8")
    synthetic_seconds = time.perf_counter() - started

    started = time.perf_counter()
    engine.run_network("alexnet")
    alexnet_seconds = time.perf_counter() - started
    assert synthetic_seconds <= alexnet_seconds * 1.5, (
        f"plain-cnn-8 ({synthetic_seconds:.3f}s) should not cost more than "
        f"AlexNet ({alexnet_seconds:.3f}s)"
    )


def test_warm_synthetic_rerun_throughput(benchmark):
    """Warm-engine re-runs of a synthetic workload hit the memo table."""
    engine = SimulationEngine(cache_dir=False)
    engine.run_network("bottleneck-stack-4")  # warm the memo table

    simulation = benchmark(lambda: engine.run_network("bottleneck-stack-4"))
    assert network_comparison(simulation).total_cycles("SCNN") > 0
    assert engine.memory_hits > 0


def test_density_profile_column_scales_with_profile(benchmark):
    """One workload swept across density profiles through the warm engine."""
    engine = SimulationEngine(cache_dir=False)
    spec = get_workload("plain-cnn-8")
    network = spec.build()

    from repro.workloads import get_profile

    def sweep_profiles_over_network():
        totals = {}
        for profile_name in ("dense", "uniform-50", "uniform-10"):
            table = get_profile(profile_name).table(network)
            simulation = engine.run_network(network, sparsity=table)
            totals[profile_name] = network_comparison(simulation).total_cycles("SCNN")
        return totals

    totals = benchmark(sweep_profiles_over_network)
    # Sparser operands must cost fewer SCNN cycles, monotonically.
    assert totals["dense"] > totals["uniform-50"] > totals["uniform-10"]
