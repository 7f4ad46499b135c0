"""Pinned equivalence: the comparison is the one network-level view.

A :class:`~repro.arch.compare.NetworkComparison` is the only place a
simulation's per-layer results are aggregated: Figures 8, 9 and 10 are thin
views over it, and the service's ``network`` payload reads its totals.  Its
rows must be the engine simulation's per-layer results, the same integers
and bitwise equal floats, whether :func:`compare_network` runs the engine or
:func:`network_comparison` reads a simulation already in hand.  The
network-level numbers themselves are pinned by goldens:
``tests/golden/architecture_paths.json`` (every row and total),
``tests/golden/trio_payloads.json`` (the ``network``, ``fig8`` and
``fig10`` payloads) and the printed Figure 8, 9 and 10 tables
(``perfbench/golden/fig8_stdout.txt``, ``tests/golden/fig9_stdout.txt`` and
``tests/golden/fig10_stdout.txt``, which CI's docs job diffs).

Every architecture has one accounting, so a renamed copy of a trio
architecture, evaluated like any other registered variant, must reproduce
its original's rows exactly.
"""

from dataclasses import replace

import pytest

import repro.arch.registry
import repro.engine.core
import repro.nn.pruning
from repro.arch.compare import (
    ArchLayerMetrics,
    NetworkComparison,
    compare_network,
    network_comparison,
)
from repro.arch.registry import default_registry
from repro.engine import SimulationEngine
from repro.experiments import fig10_energy
from repro.nn.networks import Network

NETWORK = "alexnet"
TRIO = ("SCNN", "DCNN", "DCNN-opt")


@pytest.fixture(scope="module")
def engine():
    """One warm engine shared by every equivalence check in this module."""
    return SimulationEngine(cache_dir=False)


@pytest.fixture(scope="module")
def simulation(engine):
    """The engine's simulation every comparison below is read from."""
    return engine.run_network(NETWORK, seed=0)


@pytest.fixture(scope="module")
def comparison(engine):
    return compare_network(NETWORK, seed=0, engine=engine)


class TestComparisonRowsAreTheSimulation:
    def test_per_layer_cycles_identical(self, comparison, simulation):
        for metrics, layer in zip(comparison.layers["SCNN"], simulation.layers):
            assert metrics.cycles == layer.scnn.cycles
            assert metrics.operations == layer.scnn.operations
        for metrics, layer in zip(comparison.layers["DCNN"], simulation.layers):
            assert metrics.cycles == layer.dcnn.cycles
        assert comparison.oracle_cycles == [
            layer.oracle_cycles for layer in simulation.layers
        ]

    def test_per_layer_energy_identical(self, comparison, simulation):
        for name in TRIO:
            for metrics, layer in zip(comparison.layers[name], simulation.layers):
                assert metrics.energy_total == layer.energy[name].total


class TestComparisonOfASimulation:
    """:func:`network_comparison` is ``compare_network`` without the engine."""

    def test_equals_compare_network_and_makes_no_engine_call(
        self, simulation, comparison, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("a comparison of a simulation ran the engine")

        monkeypatch.setattr(repro.engine.core, "parallel_map", forbidden)
        monkeypatch.setattr(repro.nn.pruning, "generate_dense_weights", forbidden)
        assert network_comparison(simulation) == comparison

    def test_other_columns_are_passed_in(self, engine, simulation):
        names = ["SCNN", "SCNN-16PE"]
        expected = compare_network(NETWORK, names, seed=0, engine=engine)
        workloads = [layer.workload for layer in simulation.layers]
        grid = engine.run_architectures(workloads, ["SCNN-16PE"])
        built = network_comparison(
            simulation, names, columns={"SCNN-16PE": grid.column("SCNN-16PE")}
        )
        assert built == expected
        assert built.architectures == ["DCNN", "SCNN", "SCNN-16PE"]
        with pytest.raises(KeyError, match="SCNN-16PE"):
            network_comparison(simulation, names)

    def test_seed_is_the_one_the_simulation_was_drawn_at(self, engine, simulation):
        assert network_comparison(simulation).seed == 0
        assert network_comparison(engine.run_network(NETWORK, seed=3)).seed == 3
        assert compare_network(NETWORK, seed=3, engine=engine).seed == 3
        # A network with no layers drew nothing, so there is no seed to read.
        empty = engine.run_network(Network("Empty", ()), seed=3, sparsity={})
        assert network_comparison(empty).seed == 0


def _weighted(members):
    """Figure 9's formula: each layer's utilization weighted by its cycles."""
    cycles = sum(result.cycles for result in members)
    return {
        "multiplier_utilization": sum(
            result.multiplier_utilization * result.cycles for result in members
        ) / cycles,
        "idle_fraction": sum(
            result.idle_fraction * result.cycles for result in members
        ) / cycles,
    }


class TestModuleUtilization:
    """Figure 9's statistic: cycle-weighted over each module's SCNN layers,
    and over every layer for the network average."""

    @pytest.mark.parametrize("network", ["alexnet", "googlenet"])
    def test_matches_the_cycle_weighted_formula(self, engine, network):
        simulation = engine.run_network(network, seed=0)
        comparison = network_comparison(simulation)
        modules = comparison.modules()
        assert modules == list(dict.fromkeys(layer.module for layer in simulation.layers))
        for module in modules:
            members = [layer.scnn for layer in simulation.layers if layer.module == module]
            assert comparison.module_utilization(module, "SCNN") == _weighted(members)
        assert comparison.utilization("SCNN") == _weighted(
            [layer.scnn for layer in simulation.layers]
        )

    def test_zero_cycle_module_reads_zero(self):
        def row(architecture, cycles):
            return ArchLayerMetrics(
                architecture=architecture,
                layer="idle",
                module="m",
                cycles=cycles,
                operations=0,
                multiplier_utilization=0.5,
                idle_fraction=0.5,
                energy_total=1.0,
            )

        comparison = NetworkComparison(
            network="Idle",
            seed=0,
            baseline="DCNN",
            architectures=["DCNN", "SCNN"],
            layers={"DCNN": [row("DCNN", 10)], "SCNN": [row("SCNN", 0)]},
            oracle_cycles=[0],
        )
        idle = {"multiplier_utilization": 0.0, "idle_fraction": 0.0}
        assert comparison.module_utilization("m", "SCNN") == idle
        assert comparison.utilization("SCNN") == idle
        assert comparison.module_utilization("m", "DCNN") == {
            "multiplier_utilization": 0.5,
            "idle_fraction": 0.5,
        }


class TestFigureDriversAreThinViews:
    """Fig. 10 routes through the comparison and matches the layer sums."""

    def test_fig10_report_bitwise_equal_to_layer_sums(self, engine, simulation):
        report = fig10_energy.run(networks=(NETWORK,), engine=engine)["AlexNet"]

        def ratio(name, layers):
            dcnn = sum(layer.energy["DCNN"].total for layer in layers)
            total = sum(layer.energy[name].total for layer in layers)
            return total / dcnn if dcnn else 0.0

        assert report.network_scnn == ratio("SCNN", simulation.layers)
        assert report.network_dcnn_opt == ratio("DCNN-opt", simulation.layers)
        for row in report.rows[:-1]:
            members = [
                layer for layer in simulation.layers if layer.module == row.label
            ]
            assert row.dcnn_opt == ratio("DCNN-opt", members)
            assert row.scnn == ratio("SCNN", members)

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


def test_a_repeated_architecture_is_compared_once(monkeypatch, capsys):
    """``repro compare --architectures SCNN,SCNN-16PE,SCNN-16PE,DCNN``
    evaluates and prints SCNN-16PE once."""
    from repro.experiments.compare import compare_main

    requested = ["SCNN", "SCNN-16PE", "SCNN-16PE", "DCNN"]
    engine = SimulationEngine(cache_dir=False)
    monkeypatch.setattr(repro.engine, "_default_engine", engine)
    submitted = []
    real = repro.engine.core.parallel_map

    def recording(function, tasks, workers=None, **kwargs):
        tasks = list(tasks)
        submitted.extend([spec.name for spec in specs] for _, specs in tasks)
        return real(function, tasks, workers, **kwargs)

    monkeypatch.setattr(repro.engine.core, "parallel_map", recording)
    argv = ["--networks", NETWORK, "--architectures", ",".join(requested)]
    assert compare_main(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len([row for row in rows if row.startswith("SCNN-16PE")]) == 1
    assert submitted == [[*TRIO, "SCNN-16PE"]] * 5
    comparison = compare_network(NETWORK, requested, engine=engine)
    assert comparison.architectures == ["SCNN", "SCNN-16PE", "DCNN"]


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
            registry.register(replace(spec, config=replace(spec.config, name=copy)))
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
