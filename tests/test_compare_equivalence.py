"""Pinned equivalence: the compare path reproduces Fig 8 / Fig 10 bitwise.

The cross-architecture comparison sweep (``repro.arch.compare``) and the
figure drivers that are now thin views over it must produce *exactly* the
numbers the serial reference simulator produces — same integers, bitwise
equal floats, no tolerance.  This is the contract that lets the registry
refactor touch the model/engine/experiment layers without moving a single
reported result.

Every architecture has one accounting, so a renamed copy of a trio
architecture, evaluated like any other registered variant, must reproduce
its original's rows exactly.
"""

from dataclasses import replace

import pytest

import repro.arch.registry
from repro.arch.compare import compare_network
from repro.arch.registry import default_registry
from repro.engine import SimulationEngine
from repro.experiments import fig8_performance, fig10_energy
from repro.nn.networks import get_network
from repro.scnn.simulator import simulate_network

NETWORK = "alexnet"
TRIO = ("SCNN", "DCNN", "DCNN-opt")


@pytest.fixture(scope="module")
def engine():
    """One warm engine shared by every equivalence check in this module."""
    return SimulationEngine(cache_dir=False)


@pytest.fixture(scope="module")
def reference():
    """The serial reference simulation (pre-refactor ground truth)."""
    return simulate_network(get_network(NETWORK), seed=0)


@pytest.fixture(scope="module")
def comparison(engine):
    return compare_network(NETWORK, seed=0, engine=engine)


class TestComparisonMatchesSerialReference:
    def test_per_layer_cycles_identical(self, comparison, reference):
        for metrics, layer in zip(comparison.layers["SCNN"], reference.layers):
            assert metrics.cycles == layer.scnn.cycles
            assert metrics.operations == layer.scnn.operations
        for metrics, layer in zip(comparison.layers["DCNN"], reference.layers):
            assert metrics.cycles == layer.dcnn.cycles

    def test_per_layer_energy_identical(self, comparison, reference):
        for name in ("SCNN", "DCNN", "DCNN-opt"):
            for metrics, layer in zip(comparison.layers[name], reference.layers):
                assert metrics.energy_total == layer.energy[name].total

    def test_network_speedups_bitwise_equal(self, comparison, reference):
        assert comparison.speedup("SCNN") == reference.network_speedup
        assert comparison.oracle_speedup == reference.oracle_network_speedup
        assert comparison.total_cycles("SCNN") == reference.total_cycles("SCNN")
        assert comparison.total_cycles("DCNN") == reference.total_cycles("DCNN")
        assert comparison.oracle_total_cycles == reference.total_cycles("oracle")

    def test_energy_ratios_bitwise_equal(self, comparison, reference):
        for name in ("SCNN", "DCNN-opt"):
            assert comparison.energy_ratio(name) == reference.network_energy_ratio(
                name
            )
            assert comparison.total_energy(name) == reference.total_energy(name)

    def test_module_aggregations_bitwise_equal(self, comparison, reference):
        assert comparison.modules() == reference.modules()
        for module in reference.modules():
            speedups = reference.module_speedup(module)
            assert comparison.module_speedup(module, "SCNN") == speedups["SCNN"]
            assert (
                comparison.module_oracle_speedup(module)
                == speedups["SCNN (oracle)"]
            )


class TestFigureDriversAreThinViews:
    """Fig 8 / Fig 10 route through compare and still match the reference."""

    def test_fig8_report_bitwise_equal_to_reference(self, engine, reference):
        report = fig8_performance.run(networks=(NETWORK,), engine=engine)["AlexNet"]
        assert report.network_speedup == reference.network_speedup
        assert report.oracle_speedup == reference.oracle_network_speedup
        labels = [row.label for row in report.rows]
        assert labels == reference.modules() + ["all"]
        for row in report.rows[:-1]:
            speedups = reference.module_speedup(row.label)
            assert row.scnn == speedups["SCNN"]
            assert row.oracle == speedups["SCNN (oracle)"]

    def test_fig10_report_bitwise_equal_to_reference(self, engine, reference):
        report = fig10_energy.run(networks=(NETWORK,), engine=engine)["AlexNet"]
        assert report.network_scnn == reference.network_energy_ratio("SCNN")
        assert report.network_dcnn_opt == reference.network_energy_ratio("DCNN-opt")
        for row in report.rows[:-1]:
            members = [
                layer for layer in reference.layers if layer.module == row.label
            ]
            dcnn = sum(layer.energy["DCNN"].total for layer in members)
            dcnn_opt = sum(layer.energy["DCNN-opt"].total for layer in members)
            scnn = sum(layer.energy["SCNN"].total for layer in members)
            assert row.dcnn_opt == (dcnn_opt / dcnn if dcnn else 0.0)
            assert row.scnn == (scnn / dcnn if dcnn else 0.0)

    def test_parallel_compare_identical_to_serial(self, comparison):
        """The sharded path returns the same objects, bit for bit."""
        parallel_engine = SimulationEngine(cache_dir=False, parallel=2)
        parallel = compare_network(
            NETWORK,
            ["DCNN", "DCNN-opt", "SCNN", "SCNN-SparseW"],
            seed=0,
            engine=parallel_engine,
        )
        for name in ("DCNN", "DCNN-opt", "SCNN"):
            assert parallel.layers[name] == comparison.layers[name]
        assert parallel.oracle_cycles == comparison.oracle_cycles


@pytest.fixture(scope="module")
def trio_copies():
    """``original -> copy`` names of renamed trio copies, registered in a
    fresh default registry for this module only."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.arch.registry, "_default_registry", None)
        registry = default_registry()
        copies = {}
        for name in TRIO:
            spec = registry.get(name)
            copy = f"{name}-copy"
            registry.register(
                replace(spec, name=copy, config=replace(spec.config, name=copy))
            )
            copies[name] = copy
        yield copies


@pytest.mark.parametrize("parallel", [None, 2], ids=["serial", "parallel2"])
def test_renamed_trio_copies_reproduce_the_trio_rows(trio_copies, parallel):
    """A copy goes through ``run_architectures`` and prices its own energy;
    its rows equal the original's in every field but ``architecture``."""
    engine = SimulationEngine(cache_dir=False, parallel=parallel)
    comparison = compare_network(
        NETWORK, [*TRIO, *trio_copies.values()], seed=0, engine=engine
    )
    for name, copy in trio_copies.items():
        rows = [replace(row, architecture=name) for row in comparison.layers[copy]]
        assert rows == comparison.layers[name]
