"""Tests for the batched simulation engine (repro.engine).

Three properties matter:

* caching is correct — hits return exactly what a fresh computation would,
  misses recompute, and any input change produces a different key;
* the parallel path and a disk-cache restore are bitwise-identical to the
  serial path (whose trio results ``tests/test_pipeline_golden.py`` pins);
* DSE sweeps through the engine equal the plain ``dse.sweep``.
"""

import contextlib
import dataclasses
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.engine
import repro.nn.pruning
from repro import obs
from repro.arch import SCNN_CONFIG
from repro.arch.adapters import ArchLayerResult
from repro.engine import (
    ResultCache,
    SimulationEngine,
    WorkloadHandle,
    configure_default_engine,
    default_cache_dir,
    default_engine,
    fingerprint,
    parallel_map,
    resolve_workers,
)
from repro.engine import core, parallel
from repro.engine.parallel import pool_forks, usable_cpus
from repro.engine.workloads import network_handles, resolve_network_sparsity
from repro.nn.densities import LayerSparsity, network_sparsity
from repro.nn.layers import ConvLayerSpec
from repro.nn.networks import Network
from repro.scnn.simulator import TRIO
from repro.timeloop.dse import DesignPoint, default_candidates, sweep
from repro.workloads.profiles import get_profile
from repro.workloads.registry import available_workloads, resolve_workload

from _helpers import fresh_interpreter, make_workload, recipe_workload, survivors


@pytest.fixture(scope="module")
def tiny_network() -> Network:
    return Network(
        "EngineNet",
        (
            ConvLayerSpec("e1", 3, 8, 14, 14, 3, 3, padding=1),
            ConvLayerSpec("e2", 8, 16, 14, 14, 3, 3, padding=1),
            ConvLayerSpec("e3", 16, 8, 7, 7, 1, 1),
        ),
    )


@pytest.fixture(scope="module")
def reference_simulation(tiny_network):
    """The serial engine's simulation, which every other path must equal."""
    return SimulationEngine(cache_dir=False).run_network(tiny_network, seed=0)


def assert_simulations_identical(left, right):
    assert len(left.layers) == len(right.layers)
    for a, b in zip(left.layers, right.layers):
        assert a.layer_name == b.layer_name
        assert a.results == b.results
        assert a.oracle_cycles == b.oracle_cycles
        assert a.output_density == b.output_density
        assert a.energy == b.energy


def _sql(cache, statement, *params):
    """Run one statement on ``cache``'s file over a connection of its own."""
    import sqlite3

    with contextlib.closing(
        sqlite3.connect(cache.path, isolation_level=None)
    ) as connection:
        return connection.execute(statement, params).fetchall()


@pytest.fixture
def live_obs():
    """A zeroed, recording metrics registry for one test."""
    obs.reset(enabled=True)
    yield obs.registry()
    obs.reset(enabled=False)


def _write_rows(root, writer):
    """Forked writer: 25 transactions of 20 rows each on ``root``."""
    cache = ResultCache(root)
    for batch in range(25):
        cache.put_many(
            [(f"{writer}-{batch}-{row}", [writer, batch, row]) for row in range(20)]
        )
    assert cache.write_failures == 0


def _use_inherited_store(cache):
    """Forked child: read and write through the parent's store object, on
    a connection of its own beside the untouched inherited ones."""
    inherited = dict(cache._connections)
    assert {pid for pid, _ in inherited} == {os.getppid()}
    assert cache.get_many(["parent-1"]) == [1]
    cache.put_many([("child", 2)])
    assert cache.write_failures == 0
    assert cache._connections.keys() - inherited.keys() == {
        (os.getpid(), threading.get_ident())
    }
    assert all(cache._connections[key] is inherited[key] for key in inherited)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = fingerprint("unit", value=1)
        assert cache.get_many([key]) == [None]
        cache.put_many([(key, {"cycles": 42})])
        assert cache.get_many([key]) == [{"cycles": 42}]
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1
        # One file, with its write-ahead log and index while a connection is open.
        names = {path.name for path in tmp_path.iterdir()}
        assert "cells.sqlite" in names
        assert names <= {"cells.sqlite", "cells.sqlite-wal", "cells.sqlite-shm"}

    def test_keys_past_one_statement_read_back_in_order(self, tmp_path):
        """More keys than one statement binds (999): values in key order,
        a miss in place of each absent row."""
        cache = ResultCache(tmp_path)
        keys = [fingerprint("unit", value=value) for value in range(2500)]
        cache.put_many([(key, [value]) for value, key in enumerate(keys) if value % 3])
        assert cache.get_many(keys) == [
            [value] if value % 3 else None for value in range(2500)
        ]
        assert cache.misses == len(range(0, 2500, 3))
        assert cache.hits == 2500 - cache.misses

    def test_corrupt_entry_degrades_to_miss(self, tmp_path, live_obs):
        """A row overwritten with bad JSON is a miss; the row is deleted and
        counted, so the next write recreates it."""
        cache = ResultCache(tmp_path)
        key = fingerprint("unit", value=2)
        cache.put_many([(key, "payload")])
        _sql(cache, "UPDATE cells SET value = '{not json' WHERE key = ?", key)
        assert cache.get_many([key]) == [None]
        assert _sql(cache, "SELECT key FROM cells") == []
        assert live_obs.get("repro_cache_corrupt_entries_total").value() == 1
        assert cache.misses == 1 and cache.write_failures == 0

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        for value in range(3):
            cache.put_many([(fingerprint("unit", value=value), value)])
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_lru_eviction_respects_the_bound(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        keys = [fingerprint("unit", value=value) for value in range(3)]
        for key, value in zip(keys[:2], range(2)):
            cache.put_many([(key, value)])
        assert cache.get_many([keys[0]]) == [0]  # stamps row 0: now newest
        cache.put_many([(keys[2], 2)])
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get_many(keys) == [0, None, 2]  # the unused row went

    def test_lru_order_is_the_used_stamps(self, tmp_path):
        """Eviction reads the ``used`` stamps alone, not the write order:
        stamp the first-written row newest and the second-written goes."""
        cache = ResultCache(tmp_path, max_entries=2)
        keys = [fingerprint("unit", value=value) for value in range(3)]
        for key, value in zip(keys[:2], range(2)):
            cache.put_many([(key, value)])
        for stamp, key in ((9, keys[0]), (8, keys[1])):
            _sql(cache, "UPDATE cells SET used = ? WHERE key = ?", stamp, key)
        cache.put_many([(keys[2], 2)])
        assert sorted(_sql(cache, "SELECT key, used FROM cells")) == sorted(
            [(keys[0], 9), (keys[2], 10)]
        )
        assert cache.evictions == 1

    def test_one_write_past_the_bound_evicts_exactly_the_excess(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=3)
        cache.put_many([(fingerprint("unit", value=value), value) for value in range(5)])
        assert len(cache) == 3
        assert cache.evictions == 2

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        for value in range(5):
            cache.put_many([(fingerprint("unit", value=value), value)])
        assert len(cache) == 5
        assert cache.evictions == 0

    def test_invalid_bound_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_entries=0)

    @pytest.mark.parametrize("fault", ["not-a-database", "unwritable-root"])
    def test_an_unusable_store_degrades_to_no_cache(self, tmp_path, live_obs, fault):
        """Reads miss and a write counts one failure; nothing raises."""
        if fault == "not-a-database":
            cache = ResultCache(tmp_path)
            cache.path.write_bytes(b"not a database " * 512)
        else:
            (tmp_path / "file").write_text("a file where the root should be")
            cache = ResultCache(tmp_path / "file" / "cache")
        key = fingerprint("unit", value=3)
        assert cache.get_many([key]) == [None]
        cache.put_many([(key, 3)])
        assert cache.get_many([key]) == [None]
        assert cache.misses == 2 and cache.hits == 0
        assert cache.write_failures == 1
        failures = live_obs.get("repro_cache_write_failures_total")
        assert failures.value(tier="disk") == 1
        assert cache.clear() == 0 and cache.write_failures == 2

    def test_threads_share_one_store(self, tmp_path):
        """Eight threads write and read one store, each on a connection of
        its own; every row lands and no counter update is lost."""
        cache = ResultCache(tmp_path, max_entries=10_000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def work(thread):
            for batch in range(20):
                keys = [f"{thread}-{batch}-{row}" for row in range(10)]
                cache.put_many([(key, [thread, batch]) for key in keys])
                assert cache.get_many(keys) == [[thread, batch]] * 10

        try:
            with ThreadPoolExecutor(max_workers=8) as executor:
                for future in [executor.submit(work, thread) for thread in range(8)]:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert cache.hits == 8 * 20 * 10 and cache.misses == 0
        assert len(cache) == 8 * 20 * 10
        assert cache.write_failures == 0 and cache.evictions == 0

    @pytest.mark.skipif(not pool_forks(), reason="needs the fork start method")
    def test_forked_writers_share_one_root(self, tmp_path):
        """Four processes commit 25 transactions each to one fresh root:
        every row lands, and a fresh reader sees all of them."""
        context = multiprocessing.get_context("fork")
        writers = [
            context.Process(target=_write_rows, args=(tmp_path, writer))
            for writer in range(4)
        ]
        for process in writers:
            process.start()
        for process in writers:
            process.join(timeout=60)
        assert [process.exitcode for process in writers] == [0] * 4
        keys = [
            (f"{writer}-{batch}-{row}", [writer, batch, row])
            for writer in range(4)
            for batch in range(25)
            for row in range(20)
        ]
        reader = ResultCache(tmp_path)
        assert reader.get_many([key for key, _ in keys]) == [row for _, row in keys]
        assert len(reader) == len(keys)

    @pytest.mark.skipif(not pool_forks(), reason="needs the fork start method")
    def test_a_forked_child_opens_its_own_connection(self, tmp_path):
        """A store the parent has used, from two threads, keeps working
        after a forked child used the same object (on a connection of its
        own) and exited."""
        cache = ResultCache(tmp_path)
        cache.put_many([("parent-1", 1)])
        with ThreadPoolExecutor(max_workers=1) as executor:
            assert executor.submit(cache.get_many, ["parent-1"]).result(60) == [1]
        child = multiprocessing.get_context("fork").Process(
            target=_use_inherited_store, args=(cache,)
        )
        child.start()
        child.join(timeout=30)
        assert child.exitcode == 0
        assert cache.get_many(["parent-1", "child"]) == [1, 2]
        cache.put_many([("parent-2", 3)])
        assert cache.write_failures == 0
        fresh = ResultCache(tmp_path)
        assert fresh.get_many(["parent-1", "child", "parent-2"]) == [1, 2, 3]

    def test_no_disk_io_under_the_lock(self, tmp_path):
        """A bounded store's writes, hits and evictions do their I/O outside
        the store's lock, which guards its counters only."""
        from repro.devtools.locks import TrackedLock, track_locks

        with track_locks() as tracker:
            cache = ResultCache(tmp_path, max_entries=2)
            keys = [fingerprint("unit", value=value) for value in range(4)]
            for key, value in zip(keys, range(4)):
                cache.put_many([(key, value)])
                cache.get_many(keys)
        assert isinstance(cache._lock, TrackedLock)
        assert cache.evictions == 2 and cache.hits > 0
        held = [
            violation.format()
            for violation in tracker.io_violations
            if any(site.startswith("cache.py:") for site in violation.held_sites)
        ]
        assert held == []


def _record_store_calls(engine, monkeypatch):
    """Record ``(method, number of keys)`` for every call the engine makes
    on its disk cache."""
    calls = []
    for name in ("get_many", "put_many"):
        real = getattr(engine.disk_cache, name)

        def recording(items, real=real, name=name):
            calls.append((name, len(items)))
            return real(items)

        monkeypatch.setattr(engine.disk_cache, name, recording)
    return calls


class TestDiskRows:
    def test_one_read_and_at_most_one_write_per_call(
        self, tiny_network, tmp_path, monkeypatch
    ):
        cells = _trio_cells(tiny_network)
        layers = len(tiny_network.layers)
        engine = SimulationEngine(cache_dir=tmp_path)
        calls = _record_store_calls(engine, monkeypatch)
        engine.run_network(tiny_network)
        assert calls == [("get_many", cells), ("put_many", cells)]
        calls.clear()
        engine.run_network(tiny_network)  # the memo table answers every key
        assert calls == []
        _, handles = network_handles(tiny_network)
        engine.run_architectures(handles, [*TRIO, "SCNN-16PE"])
        assert calls == [("get_many", layers), ("put_many", layers)]
        fresh = SimulationEngine(cache_dir=tmp_path)
        calls = _record_store_calls(fresh, monkeypatch)
        fresh.run_network(tiny_network)  # every key a disk hit: no write
        assert calls == [("get_many", cells)]
        fresh.sweep(default_candidates()[:2], tiny_network)
        assert calls[1:] == [("get_many", 2), ("put_many", 2)]

    def test_rows_read_back_equal_the_computed_values(self, tmp_path):
        """A fresh engine rebuilds every cell and design point from its row
        field for field, types included."""
        _, handles = network_handles("alexnet")
        candidates = default_candidates()[:3]

        def values(engine):
            run = engine.run_architectures(handles, [*TRIO, "SCNN-SparseA"])
            cells = [cell for row in run.results for cell in row]
            return cells + engine.sweep(candidates, "alexnet")

        computed = values(SimulationEngine(cache_dir=tmp_path))
        reader = SimulationEngine(cache_dir=tmp_path)
        restored = values(reader)
        assert reader.disk_cache.misses == 0
        assert reader.disk_cache.hits == len(computed)
        assert {type(value) for value in computed} == {ArchLayerResult, DesignPoint}
        kinds = set()
        for ours, theirs in zip(computed, restored):
            assert type(theirs) is type(ours)
            for field in dataclasses.fields(ours):
                mine, read = getattr(ours, field.name), getattr(theirs, field.name)
                assert type(read) is type(mine) and read == mine, field.name
                kinds.add(type(mine))
        assert {int, float, str, type(None)} <= kinds

    def test_a_python_without_sqlite3_runs_uncached(self, tmp_path):
        """With ``sqlite3`` unimportable, a disk-cached run equals the serial
        one and counts its write as failed."""
        code = (
            "import sys\n"
            "sys.modules['sqlite3'] = None\n"
            "from repro.engine import SimulationEngine\n"
            "from repro.nn.layers import ConvLayerSpec\n"
            "from repro.nn.networks import Network\n"
            "network = Network('NoSqlite', (ConvLayerSpec('n1', 3, 8, 14, 14, 3, 3,"
            " padding=1), ConvLayerSpec('n2', 8, 8, 7, 7, 1, 1)))\n"
            f"cached = SimulationEngine(cache_dir={str(tmp_path)!r})\n"
            "served = cached.run_network(network)\n"
            "serial = SimulationEngine(cache_dir=False).run_network(network)\n"
            "assert [l.results for l in served.layers] == "
            "[l.results for l in serial.layers]\n"
            "stats = cached.stats()\n"
            "assert stats['disk_write_failures'] == 1, stats\n"
            "assert stats['disk_misses'] == 6 and stats['disk_hits'] == 0, stats\n"
            "assert 'sqlite3' not in {name for name, module in sys.modules.items()"
            " if module is not None}\n"
        )
        result = subprocess.run(
            **fresh_interpreter(code), capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr


class TestFingerprint:
    def test_any_input_change_changes_the_key(self, tiny_network):
        sparsity = network_sparsity(tiny_network)
        base = fingerprint("net", network=tiny_network, seed=0, sparsity=sparsity,
                           config=SCNN_CONFIG)
        assert base == fingerprint("net", network=tiny_network, seed=0,
                                   sparsity=sparsity, config=SCNN_CONFIG)
        assert base != fingerprint("net", network=tiny_network, seed=1,
                                   sparsity=sparsity, config=SCNN_CONFIG)
        assert base != fingerprint("net", network=tiny_network, seed=0,
                                   sparsity=sparsity, config=SCNN_CONFIG.with_pe_count(16))
        assert base != fingerprint("other", network=tiny_network, seed=0,
                                   sparsity=sparsity, config=SCNN_CONFIG)

    def test_tensor_content_addresses_raw_workloads(self, small_spec):
        workload = make_workload(small_spec)
        same = make_workload(small_spec)
        different = make_workload(small_spec, seed=7)
        assert fingerprint("wl", workload=workload) == fingerprint("wl", workload=same)
        assert fingerprint("wl", workload=workload) != fingerprint(
            "wl", workload=different
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("network_name", "OtherNet", id="network_name"),
            pytest.param("seed", 1, id="seed"),
            pytest.param("index", 1, id="index"),
            pytest.param(
                "spec", ConvLayerSpec("e1", 3, 8, 14, 14, 5, 5, padding=2), id="spec"
            ),
            pytest.param("target", LayerSparsity(0.25, 0.75), id="target"),
        ],
    )
    def test_every_handle_field_enters_the_key(self, tiny_network, field, value):
        """A recipe is its identity: changing any one of its fields moves
        the key."""
        from dataclasses import replace

        spec = tiny_network.layers[0]
        handle = WorkloadHandle("EngineNet", 0, 0, spec, LayerSparsity(0.5, 0.5))
        assert fingerprint("wl", workload=handle) != fingerprint(
            "wl", workload=replace(handle, **{field: value})
        )

    def test_drawing_masks_does_not_change_the_key(self, tiny_network):
        """A handle whose masks were drawn keys like a fresh one built by
        keyword: ``masks()`` leaves no state on the handle."""
        sparsity = network_sparsity(tiny_network)
        spec = tiny_network.layers[0]
        handle = WorkloadHandle("EngineNet", 0, 0, spec, sparsity[spec.name])
        handle.masks()
        fresh = WorkloadHandle(
            network_name="EngineNet", seed=0, index=0, spec=spec,
            target=sparsity[spec.name],
        )
        assert vars(handle) == vars(fresh)
        assert fingerprint("wl", workload=handle) == fingerprint("wl", workload=fresh)

    def test_underscored_fields_are_part_of_the_identity(self):
        """Every dataclass field is rendered into the key, a leading
        underscore included: no field is silently left out of it."""
        from dataclasses import dataclass

        @dataclass
        class Probe:
            value: int
            _detail: int

        assert fingerprint("probe", item=Probe(1, 2)) != fingerprint(
            "probe", item=Probe(1, 3)
        )


class TestWorkloadHandle:
    def test_masks_are_drawn_afresh_on_each_call(self, tiny_network):
        """``masks()`` caches nothing: each call returns new arrays with the
        same bits, so a caller may mutate what it got."""
        _, handles = network_handles(tiny_network, seed=0)
        handle = handles[1]
        first_weights, first_activations = handle.masks()
        second_weights, second_activations = handle.masks()
        assert first_weights is not second_weights
        assert first_activations is not second_activations
        assert np.array_equal(first_weights, second_weights)
        assert np.array_equal(first_activations, second_activations)
        first_weights[...] = False
        assert np.array_equal(handle.masks()[0], second_weights)

    def test_masks_are_the_recipe_nonzeros(self, tiny_network):
        """``masks()`` is ``!= 0`` of the tensors drawn from
        ``default_rng([seed, index])``, layer by layer."""
        _, handles = network_handles(tiny_network, seed=0)
        for handle in handles:
            weights, activations = handle.masks()
            workload = recipe_workload(handle)
            assert np.array_equal(weights, workload.weights != 0)
            assert np.array_equal(activations, workload.activations != 0)

    @pytest.mark.parametrize("name", available_workloads())
    def test_recipe_densities_are_the_measured_ones(self, name):
        """Bit for bit, on every registered workload at two seeds."""
        network, sparsity = resolve_workload(name)
        for seed in (0, 3):
            for index, spec in enumerate(network.layers):
                handle = WorkloadHandle(name, seed, index, spec, sparsity[spec.name])
                weights, activations = handle.masks()
                assert handle.weight_density == (
                    np.count_nonzero(weights) / weights.size
                )
                assert handle.activation_density == (
                    np.count_nonzero(activations) / activations.size
                )

    def test_pickle_is_the_recipe_and_survives_round_trip(self, tiny_network):
        import pickle

        sparsity = network_sparsity(tiny_network)
        spec = tiny_network.layers[0]
        handle = WorkloadHandle(tiny_network.name, 0, 0, spec, sparsity[spec.name])
        restored = pickle.loads(pickle.dumps(handle))
        assert restored == handle
        for restored_mask, mask in zip(restored.masks(), handle.masks()):
            assert np.array_equal(restored_mask, mask)
        assert len(pickle.dumps(handle)) < 2000  # recipe, not tensors


class TestResolveNetworkSparsity:
    def test_a_name_takes_its_registered_profile(self):
        network, sparsity = resolve_network_sparsity("plain-cnn-8")
        assert network.name == resolve_workload("plain-cnn-8")[0].name
        assert sparsity == get_profile("uniform-50").table(network)

    def test_an_explicit_table_overrides_the_profile(self):
        network = resolve_workload("plain-cnn-8")[0]
        table = get_profile("uniform-25").table(network)
        resolved, sparsity = resolve_network_sparsity("plain-cnn-8", table)
        assert [spec.name for spec in resolved.layers] == [
            spec.name for spec in network.layers
        ]
        assert sparsity is table

    def test_a_bare_network_takes_the_calibration(self, tiny_network):
        network, sparsity = resolve_network_sparsity(tiny_network)
        assert network is tiny_network
        assert sparsity == network_sparsity(tiny_network)

    def test_missing_layers_are_named(self, tiny_network):
        partial = {"e1": LayerSparsity(0.5, 0.5)}
        with pytest.raises(KeyError, match=r"'e2', 'e3' of EngineNet"):
            resolve_network_sparsity(tiny_network, partial)


class TestEngineNetworkSimulation:
    def test_fresh_serial_engines_agree(self, tiny_network, reference_simulation):
        """A result depends only on its inputs, not on an engine's history."""
        engine = SimulationEngine(cache_dir=False)
        engine.run_network(tiny_network, seed=1)
        assert_simulations_identical(
            engine.run_network(tiny_network, seed=0), reference_simulation
        )

    def test_parallel_identical_to_serial(self, tiny_network, reference_simulation):
        engine = SimulationEngine(cache_dir=False, parallel=2)
        parallel = engine.run_network(tiny_network, seed=0)
        assert_simulations_identical(parallel, reference_simulation)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_pin_no_tensors(self, tiny_network, workers, monkeypatch):
        """Neither the memo table nor the returned layers keep operand
        tensors alive; an ablation that asks for the masks gets the exact
        non-zeros."""
        engine = SimulationEngine(cache_dir=False, parallel=workers)
        simulation = engine.run_network(tiny_network, seed=0)
        calls = _record_parallel_map(monkeypatch)
        assert engine.run_network(tiny_network, seed=0) == simulation
        assert calls == []  # the repeat is assembled from memoised cells
        cells = engine._memory.values()
        assert all(isinstance(cell, ArchLayerResult) for cell in cells)
        handles = [layer.workload for layer in simulation.layers]
        assert all(isinstance(handle, WorkloadHandle) for handle in handles)
        for handle in handles:
            workload = recipe_workload(handle)
            for mask, reference in zip(handle.masks(), workload.masks()):
                assert np.array_equal(mask, reference)
            assert handle.weight_density == workload.weight_density
            assert handle.activation_density == workload.activation_density

    def test_memory_cache_returns_same_object(self, tiny_network, monkeypatch):
        """A repeat is assembled from the very cells the memo table holds."""
        engine = SimulationEngine(cache_dir=False)
        first = engine.run_network(tiny_network, seed=0)
        calls = _record_parallel_map(monkeypatch)
        second = engine.run_network(tiny_network, seed=0)
        assert second == first
        assert calls == []
        for old, new in zip(first.layers, second.layers):
            assert all(new.results[name] is old.results[name] for name in TRIO)
        assert engine.memory_hits == _trio_cells(tiny_network)

    def test_disk_cache_hit_across_engines(
        self, tiny_network, reference_simulation, tmp_path
    ):
        writer = SimulationEngine(cache_dir=tmp_path)
        writer.run_network(tiny_network, seed=0)
        reader = SimulationEngine(cache_dir=tmp_path)
        restored = reader.run_network(tiny_network, seed=0)
        assert reader.disk_cache.hits == _trio_cells(tiny_network)
        assert reader.disk_cache.misses == 0
        assert_simulations_identical(restored, reference_simulation)
        # The restored simulation's workloads redraw their operand masks.
        assert restored.layers[0].workload.masks()[0].shape == (8, 3, 3, 3)

    def test_seed_change_is_a_miss(self, tiny_network, tmp_path):
        engine = SimulationEngine(cache_dir=tmp_path)
        engine.run_network(tiny_network, seed=0)
        engine.run_network(tiny_network, seed=1)
        assert len(engine.disk_cache) == 2 * _trio_cells(tiny_network)
        assert engine.stats()["hits"] == 0

    def test_clear_cache(self, tiny_network, tmp_path):
        engine = SimulationEngine(cache_dir=tmp_path)
        engine.run_network(tiny_network, seed=0)
        engine.clear_cache()
        assert len(engine.disk_cache) == 0
        assert engine.stats()["memory_entries"] == 0

    def test_memory_memo_table_lru_bound(self, tiny_network, monkeypatch):
        cells = _trio_cells(tiny_network)
        engine = SimulationEngine(cache_dir=False, memory_max_entries=2 * cells)
        for seed in range(3):
            engine.run_network(tiny_network, seed=seed)
        stats = engine.stats()
        assert stats["memory_entries"] == 2 * cells
        assert stats["memory_evictions"] == cells
        # The oldest cells (seed 0) were evicted; seed 2's are still memoised.
        calls = _record_parallel_map(monkeypatch)
        warm = engine.run_network(tiny_network, seed=2)
        assert engine.run_network(tiny_network, seed=2) == warm
        assert calls == []
        engine.run_network(tiny_network, seed=0)
        [(_, tasks)] = calls
        assert len(tasks) == len(tiny_network.layers)
        with pytest.raises(ValueError):
            SimulationEngine(cache_dir=False, memory_max_entries=0)

    def test_stats_reports_hit_rate(self, tiny_network, tmp_path):
        cells = _trio_cells(tiny_network)
        engine = SimulationEngine(cache_dir=tmp_path)
        assert engine.stats()["hit_rate"] == 0.0
        engine.run_network(tiny_network, seed=0)
        engine.run_network(tiny_network, seed=0)  # memo-table hits
        warm = SimulationEngine(cache_dir=tmp_path)
        warm.run_network(tiny_network, seed=0)  # disk hits
        stats = engine.stats()
        assert stats["hits"] == cells and stats["misses"] == cells
        assert stats["hit_rate"] == 0.5
        warm_stats = warm.stats()
        assert warm_stats["disk_hits"] == cells
        assert warm_stats["hits"] == cells and warm_stats["misses"] == 0
        assert warm_stats["hit_rate"] == 1.0


class TestEngineRunGrid:
    @pytest.fixture(scope="class")
    def workloads(self, tiny_network):
        _, handles = network_handles(tiny_network, seed=0)
        return [recipe_workload(handle) for handle in handles]

    def test_grid_covers_every_cell(self, workloads):
        engine = SimulationEngine(cache_dir=False)
        architectures = ["SCNN", "SCNN-16PE"]
        run = engine.run_architectures(workloads, architectures)
        assert len(run.results) == len(workloads)
        assert all(len(row) == len(architectures) for row in run.results)
        for row, workload in zip(run.results, workloads):
            assert [cell.architecture for cell in row] == architectures
            assert {cell.layer for cell in row} == {workload.spec.name}
        assert run.total_cycles("SCNN") > 0
        with pytest.raises(KeyError) as excinfo:
            run.column("nonexistent")
        # The error names every architecture the run did evaluate.
        assert "'SCNN'" in str(excinfo.value)
        assert "'SCNN-16PE'" in str(excinfo.value)
        with pytest.raises(KeyError):
            run.total_cycles("also-nonexistent")

    def test_parallel_grid_identical_to_serial(self, tiny_network):
        """Pool and serial rows agree cell for cell, on lazy handles."""
        architectures = ["SCNN-SparseW", "SCNN-16PE"]
        layers = SimulationEngine(cache_dir=False).run_network(tiny_network).layers
        handles = [layer.workload for layer in layers]
        serial = SimulationEngine(cache_dir=False).run_architectures(
            handles, architectures
        )
        parallel = SimulationEngine(cache_dir=False, parallel=2).run_architectures(
            handles, architectures
        )
        assert parallel.results == serial.results

    def test_cells_individually_cached(self, workloads, tmp_path):
        engine = SimulationEngine(cache_dir=tmp_path)
        engine.run_architectures(workloads[:2], ["SCNN"])
        assert len(engine.disk_cache) == 2
        fresh = SimulationEngine(cache_dir=tmp_path)
        fresh.run_architectures(workloads[:2], ["SCNN"])
        assert fresh.disk_cache.hits == 2 and fresh.disk_cache.misses == 0


def _trio_cells(network) -> int:
    """Cache entries of one network simulation: one per (layer, trio
    architecture) cell."""
    return len(TRIO) * len(network.layers)


def _count_weight_draws(monkeypatch):
    """Record every dense weight draw: each synthesis, of tensors or of
    masks, starts with one."""
    draws = []
    draw = repro.nn.pruning.generate_dense_weights

    def counted(*args, **kwargs):
        draws.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(repro.nn.pruning, "generate_dense_weights", counted)
    return draws


def _record_parallel_map(monkeypatch):
    """Record every ``(function, tasks)`` the engine hands to ``parallel_map``."""
    calls = []
    real = core.parallel_map

    def recording(function, tasks, workers=None, **kwargs):
        calls.append((function, list(tasks)))
        return real(function, tasks, workers, **kwargs)

    monkeypatch.setattr(core, "parallel_map", recording)
    return calls


class TestArchitectureRows:
    """``run_architectures`` submits one task per layer with an uncached cell."""

    VARIANTS = ["SCNN-SparseW", "SCNN-SparseA", "SCNN-16PE", "SCNN-4PE"]

    def test_one_task_per_layer(self, monkeypatch):
        """The network simulation and the grid run one task function: the
        trio and the variants are rows of the same layer task."""
        engine = SimulationEngine(cache_dir=False)
        calls = _record_parallel_map(monkeypatch)
        handles = [layer.workload for layer in engine.run_network("alexnet").layers]
        engine.run_architectures(handles, self.VARIANTS)
        [(network_function, trio_tasks), (function, tasks)] = calls
        assert network_function is function is core._layer_task
        assert [[spec.name for spec in specs] for _, specs in trio_tasks] == [
            ["SCNN", "DCNN", "DCNN-opt"]
        ] * 5
        assert len(tasks) == 5
        for (workload, specs), handle in zip(tasks, handles):
            assert workload is handle
            assert [spec.name for spec in specs] == self.VARIANTS

    def test_rows_submit_only_their_misses(self, tiny_network, monkeypatch):
        engine = SimulationEngine(cache_dir=False)
        _, handles = network_handles(tiny_network)
        engine.run_architectures(handles[:2], ["SCNN"])
        calls = _record_parallel_map(monkeypatch)
        run = engine.run_architectures(handles, ["SCNN", "SCNN-SparseW"])
        [(_, tasks)] = calls
        assert [
            (workload.spec.name, [spec.name for spec in specs])
            for workload, specs in tasks
        ] == [
            ("e1", ["SCNN-SparseW"]),
            ("e2", ["SCNN-SparseW"]),
            ("e3", ["SCNN", "SCNN-SparseW"]),
        ]
        # A fully cached grid submits no task at all.
        calls.clear()
        again = engine.run_architectures(handles, ["SCNN", "SCNN-SparseW"])
        assert calls == []
        assert again.results == run.results

    def test_dense_only_row_synthesises_nothing(self, tiny_network, monkeypatch):
        """A dense design that gates nothing reads no operands.  (DCNN-opt
        gates zero operands, so it reads the masks to count them.)"""
        import repro.nn.pruning as pruning_module

        layers = SimulationEngine(cache_dir=False).run_network(tiny_network).layers
        handles = [layer.workload for layer in layers]

        def no_synthesis(*args, **kwargs):
            raise AssertionError("a dense-only row synthesised its layer")

        # Every synthesis, of tensors or of masks, starts with the weight draw.
        monkeypatch.setattr(pruning_module, "generate_dense_weights", no_synthesis)
        run = SimulationEngine(cache_dir=False).run_architectures(handles, ["DCNN"])
        assert run.total_cycles("DCNN") == sum(
            layer.dcnn.cycles for layer in layers
        )


class TestTensorsNeverOutliveTheirRow:
    """The memo table holds adapter results only, and a network
    simulation's layers hold recipe handles."""

    @staticmethod
    def _assert_no_tensors(engine, network):
        cells = engine._memory.values()
        assert all(isinstance(cell, ArchLayerResult) for cell in cells)
        handles = [layer.workload for layer in engine.run_network(network).layers]
        assert all(isinstance(handle, WorkloadHandle) for handle in handles)

    def test_after_granularity_study(self, monkeypatch):
        from repro.experiments import sec6c_granularity

        engine = SimulationEngine(cache_dir=False)
        monkeypatch.setattr(repro.engine, "_default_engine", engine)
        sec6c_granularity.run()
        self._assert_no_tensors(engine, "googlenet")

    def test_after_serial_compare(self):
        from repro.arch.compare import compare_network

        engine = SimulationEngine(cache_dir=False)
        compare_network(
            "alexnet", ["DCNN", "DCNN-opt", "SCNN", "SCNN-SparseW"], engine=engine
        )
        self._assert_no_tensors(engine, "alexnet")


class TestOneSynthesisPerLayer:
    """Every architecture is a cell of the same layer task, so a cold
    request draws each layer it evaluates once, and a request that
    evaluates nothing draws nothing."""

    SEVEN = ["DCNN", "DCNN-opt", "SCNN", *TestArchitectureRows.VARIANTS]

    def test_cold_seven_architecture_comparison(self, monkeypatch):
        from repro.arch.compare import compare_network

        calls = _record_parallel_map(monkeypatch)
        draws = _count_weight_draws(monkeypatch)
        compare_network("alexnet", self.SEVEN, engine=SimulationEngine(cache_dir=False))
        [(function, tasks)] = calls
        assert function is core._layer_task
        assert [[spec.name for spec in specs] for _, specs in tasks] == [
            [*TRIO, *TestArchitectureRows.VARIANTS]
        ] * 5
        assert len(draws) == 5

    def test_figure_1_draws_nothing(self, monkeypatch):
        from repro.experiments import fig1_density

        serial = SimulationEngine(cache_dir=False)
        monkeypatch.setattr(repro.engine, "_default_engine", serial)
        draws = _count_weight_draws(monkeypatch)
        calls = _record_parallel_map(monkeypatch)
        fig1_density.run()
        assert draws == [] and calls == []

    def test_granularity_study_draws_each_layer_once(self, monkeypatch):
        from repro.experiments import sec6c_granularity

        serial = SimulationEngine(cache_dir=False)
        monkeypatch.setattr(repro.engine, "_default_engine", serial)
        draws = _count_weight_draws(monkeypatch)
        sec6c_granularity.run()
        network, _ = network_handles("googlenet")
        assert len(draws) == len(network.layers) == 54

    def test_granularity_study_reads_scnn_cells(self, monkeypatch):
        """Its 64-PE column is SCNN's own configuration, so after a
        comparison only the 16- and 4-PE columns miss."""
        from repro.arch.compare import compare_network
        from repro.experiments import sec6c_granularity

        serial = SimulationEngine(cache_dir=False)
        monkeypatch.setattr(repro.engine, "_default_engine", serial)
        compare_network("googlenet", engine=serial)
        misses = serial.memory_misses
        sec6c_granularity.run()
        assert serial.memory_misses - misses == 2 * 54


class TestEngineSweep:
    def test_matches_serial_dse_sweep(self, tiny_network):
        candidates = default_candidates()
        reference = sweep(candidates, tiny_network)
        engine_points = SimulationEngine(cache_dir=False).sweep(
            candidates, tiny_network
        )
        assert [p.name for p in engine_points] == [p.name for p in reference]
        for ours, theirs in zip(engine_points, reference):
            assert ours.cycles == theirs.cycles
            assert ours.energy == theirs.energy
            assert ours.area_mm2 == theirs.area_mm2

    def test_sweep_cached(self, tiny_network, tmp_path):
        """One entry per candidate in each tier, and nothing else."""
        candidates = default_candidates()[:2]
        engine = SimulationEngine(cache_dir=tmp_path)
        engine.sweep(candidates, tiny_network)
        assert len(engine.disk_cache) == len(candidates)
        assert engine.stats()["memory_entries"] == len(candidates)
        fresh = SimulationEngine(cache_dir=tmp_path)
        fresh.sweep(candidates, tiny_network)
        assert fresh.disk_cache.hits == 2

    def test_warm_sweep_evaluates_no_grid(self, tiny_network, tmp_path, monkeypatch):
        """Every design point a hit: no empty grid is evaluated or stored."""
        import repro.grid

        candidates = default_candidates()[:3]
        SimulationEngine(cache_dir=tmp_path).sweep(candidates, tiny_network)
        fresh = SimulationEngine(cache_dir=tmp_path)
        entries = len(fresh.disk_cache)

        def no_grid(*args, **kwargs):
            raise AssertionError("a warm sweep evaluated a grid")

        monkeypatch.setattr(repro.grid, "evaluate_grid", no_grid)
        fresh.sweep(candidates, tiny_network)
        assert len(fresh.disk_cache) == entries
        assert fresh.disk_cache.hits == len(candidates)


class TestResolveWorkers:
    def test_serial_sentinels(self):
        assert resolve_workers(None, 10) == 0
        assert resolve_workers(0, 10) == 0
        assert resolve_workers(1, 10) == 0
        assert resolve_workers(4, 0) == 0

    def test_bounded_by_tasks_and_cpus(self):
        assert resolve_workers(8, 3) == 3
        assert resolve_workers(-1, 2) == min(usable_cpus(), 2)


class TestParallelMap:
    def test_submits_largest_first_and_returns_task_order(self, monkeypatch):
        submitted = []

        class RecordingPool:
            def __init__(self, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, function, tasks):
                submitted.extend(tasks)
                return map(function, tasks)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
        tasks = [2, 7, 1, 7, 5]
        assert parallel_map(str, tasks, 2, cost=lambda task: task) == list(
            map(str, tasks)
        )
        assert submitted == [7, 7, 5, 2, 1]

    def test_pool_results_in_task_order(self):
        tasks = list(range(-6, 6))
        assert parallel_map(abs, tasks, 2, cost=abs) == [abs(t) for t in tasks]

    @pytest.mark.skipif(not pool_forks(), reason="the pool does not fork here")
    def test_children_die_with_a_killed_parent(self, tmp_path):
        """A process SIGKILLed mid-map leaves no pool child running."""
        code = (
            "import os, time\n"
            "from repro.engine.parallel import parallel_map\n"
            "def nap(index):\n"
            f"    open(os.path.join({str(tmp_path)!r}, str(os.getpid())), 'w').close()\n"
            "    time.sleep(60)\n"
            "parallel_map(nap, range(2), 2)\n"
        )
        parent = subprocess.Popen(**fresh_interpreter(code))
        try:
            deadline = time.monotonic() + 30
            while len(list(tmp_path.iterdir())) < 2:
                assert time.monotonic() < deadline, "the pool never started"
                assert parent.poll() is None, "the mapping process exited"
                time.sleep(0.02)
        finally:
            parent.kill()
            parent.wait()
        children = [int(path.name) for path in tmp_path.iterdir()]
        assert survivors(children, timeout=2.0) == []


class TestDefaultEngine:
    def test_shared_engine_uses_every_usable_cpu(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL", raising=False)
        monkeypatch.setattr(repro.engine, "_default_engine", None)
        expected = -1 if pool_forks() else None
        assert default_engine().parallel == expected
        assert configure_default_engine(cache_dir=False).parallel == expected

    def test_environment_and_flag_override_the_default(self, monkeypatch):
        monkeypatch.setattr(repro.engine, "_default_engine", None)
        monkeypatch.setenv("REPRO_PARALLEL", "1")
        assert default_engine().parallel == 1
        assert configure_default_engine(cache_dir=False).parallel == 1
        assert configure_default_engine(cache_dir=False, parallel=3).parallel == 3

    def test_engines_built_directly_stay_serial(self):
        from repro.service.server import SimulationService

        assert SimulationEngine(cache_dir=False).parallel is None
        service = SimulationService(num_workers=1, observability=False)
        assert service.engine.parallel is None


class TestDefaultCacheDir:
    @pytest.mark.parametrize("raw", [None, "", "0", " OFF ", "none", "disabled"])
    def test_unset_or_disabled_means_no_disk_cache(self, raw, monkeypatch):
        if raw is None:
            monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        else:
            monkeypatch.setenv("REPRO_CACHE_DIR", raw)
        assert default_cache_dir() is None

    def test_a_path_is_user_expanded(self, monkeypatch, tmp_path):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_DIR", "~/scnn-cache")
        assert default_cache_dir() == tmp_path / "scnn-cache"
