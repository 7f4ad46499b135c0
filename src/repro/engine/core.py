"""The batched simulation engine.

:class:`SimulationEngine` is the single entry point for running layer and
network simulations and design-space sweeps.  It composes three layers:

* the **vectorised models** (:mod:`repro.scnn.cycles` over the integral-image
  tile counts of :mod:`repro.dataflow.tiling`) evaluate one layer without any
  Python-level element iteration;
* **process-pool sharding** (:mod:`repro.engine.parallel`) spreads
  independent layer simulations across CPU cores, with results always
  assembled in task order so parallel runs are bitwise-identical to serial
  ones;
* a **content-addressed result cache** (:mod:`repro.engine.cache`) memoises
  finished metrics in memory and, when a cache directory is configured, on
  disk keyed by a fingerprint of every input.

Workloads move between processes and cache entries as
:class:`~repro.nn.inference.WorkloadHandle` recipes, so neither the pool
nor the cache ever ships multi-megabyte activation tensors.  Every
architecture, the trio's included, is cached per (layer, architecture) cell,
and a network simulation is its trio's cells.  Each layer with an uncached
cell is one :func:`_layer_task`: it builds the layer's operand masks at most
once, straight from the seeded draws, and evaluates every missing
architecture through :func:`repro.arch.adapters.simulate_layer`, so no
operand outlives its layer, in the parent process or in the memo table.
Every entry point reads and writes the cache through one helper,
:meth:`SimulationEngine._cached`.
"""

from __future__ import annotations

import functools
import operator
import threading
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.arch.adapters import ArchLayerResult, evaluate_layer
from repro.arch.registry import get_architecture
from repro.arch.spec import AcceleratorConfig, ArchitectureSpec
from repro.engine.cache import ResultCache, canonical, default_cache_dir, fingerprint
from repro.engine.parallel import parallel_map
from repro.engine.workloads import network_handles, resolve_network_sparsity
from repro.nn.densities import LayerSparsity
from repro.nn.inference import WorkloadHandle
from repro.nn.layers import ConvLayerSpec
from repro.nn.networks import Network
from repro.scnn.simulator import TRIO, NetworkSimulation, network_simulation
from repro.timeloop.dse import DesignPoint, evaluate_configs

#: Disk rows: a cell's nine fields in declaration order, and a design point's
#: three numbers (the caller's config completes the point).
_CELL_ROW = operator.attrgetter(*(field.name for field in fields(ArchLayerResult)))
_POINT_ROW = operator.attrgetter("cycles", "energy", "area_mm2")

_CACHE_REQUESTS = obs.counter(
    "repro_engine_cache_requests_total",
    "Engine cache lookups by answering tier (memory, disk, or none=miss).",
    ("tier", "outcome"),
)
_ENGINE_RUNS = obs.counter(
    "repro_engine_runs_total", "Engine entry-point invocations.", ("method",)
)
_ENGINE_SECONDS = obs.histogram(
    "repro_engine_run_seconds", "Engine entry-point duration, seconds.", ("method",)
)


def _instrumented(method_name: str):
    """Wrap an engine entry point with a run counter, duration histogram,
    and an ``engine.<method>`` span on the current trace.

    When observability is disabled the wrapper costs one extra call and one
    flag check — the contract pinned by ``BENCH_observability_overhead``.
    """

    def decorate(func):
        @functools.wraps(func)
        def wrapper(self, *args, **kwargs):
            if not obs.enabled():
                return func(self, *args, **kwargs)
            _ENGINE_RUNS.inc(method=method_name)
            start = time.monotonic()
            with obs.span(f"engine.{method_name}"):
                result = func(self, *args, **kwargs)
            _ENGINE_SECONDS.observe(time.monotonic() - start, method=method_name)
            return result

        return wrapper

    return decorate


# -- picklable worker functions (module level so the process pool can import
# -- them by reference) --------------------------------------------------------


def _operand_footprint(spec: ConvLayerSpec) -> int:
    """Operand elements a synthesis of layer ``spec`` draws."""
    return spec.weight_count + spec.input_activation_count


def _layer_task(
    task: Tuple[WorkloadHandle, List[ArchitectureSpec]]
) -> List[ArchLayerResult]:
    """Evaluate one workload on each of its architectures
    (:func:`~repro.arch.adapters.evaluate_layer`): the one layer task of
    ``run_architectures``, and so of every network simulation."""
    workload, specs = task
    return evaluate_layer(workload, specs)


@dataclass
class ArchitectureRun:
    """Result grid of one :meth:`SimulationEngine.run_architectures` call.

    ``results[i][j]`` is the layer result
    (:class:`repro.arch.adapters.ArchLayerResult`) of ``workloads[i]`` on
    ``architectures[j]``.
    """

    workloads: List[WorkloadHandle]
    architectures: List[ArchitectureSpec]
    results: List[List[ArchLayerResult]]

    def column(self, architecture: str) -> List[ArchLayerResult]:
        """All per-workload results of the named architecture."""
        for j, spec in enumerate(self.architectures):
            if spec.name == architecture:
                return [row[j] for row in self.results]
        known = ", ".join(repr(spec.name) for spec in self.architectures) or "(none)"
        raise KeyError(
            f"no evaluated architecture named {architecture!r}; "
            f"this run evaluated: {known}"
        )

    def total_cycles(self, architecture: str) -> int:
        """Summed cycles of the named architecture across every workload."""
        return sum(result.cycles for result in self.column(architecture))


class SimulationEngine:
    """Cached, optionally parallel front end to every simulation model.

    The engine is safe to share between threads: the simulation models are
    pure functions, one lock guards the memo table and counters, and the
    disk cache opens a connection per thread.  That is the surface the
    simulation service
    (:mod:`repro.service`) multiplexes concurrent jobs onto — many worker
    threads, one warm engine, one shared cache.  (Concurrent identical
    requests may both compute before one wins the store; both results are
    identical, so the race is benign.)

    Args:
        cache_dir: on-disk cache root.  ``None`` (default) reads the
            ``REPRO_CACHE_DIR`` environment variable; ``False`` disables the
            disk cache outright; a path enables it there.
        parallel: process-pool size of the ``run*`` methods
            (``None``/``0``/``1`` = serial, ``-1`` = one worker per CPU).
        cache_max_entries: optional bound on the on-disk cache; beyond it
            the least-recently-used entries are evicted.
        memory_max_entries: optional bound on the in-memory memo table,
            also LRU.  Long-lived processes serving requests with
            caller-controlled inputs (the service foremost) should set
            this — every distinct fingerprint otherwise pins its result
            in memory for the process lifetime.
    """

    def __init__(
        self,
        cache_dir: Union[None, bool, str, Path] = None,
        parallel: Optional[int] = None,
        cache_max_entries: Optional[int] = None,
        memory_max_entries: Optional[int] = None,
    ) -> None:
        if memory_max_entries is not None and memory_max_entries < 1:
            raise ValueError(
                "memory_max_entries must be positive (or None for unbounded)"
            )
        if cache_dir is None:
            resolved = default_cache_dir()
        elif cache_dir is False:
            resolved = None
        else:
            resolved = Path(cache_dir)
        self.disk_cache: Optional[ResultCache] = (
            ResultCache(resolved, max_entries=cache_max_entries)
            if resolved is not None
            else None
        )
        self.parallel = parallel
        self.memory_max_entries = memory_max_entries
        # Python dicts preserve insertion order; _cached reinserts on use,
        # which makes iteration order the LRU order.
        self._memory: Dict[str, object] = {}
        self._lock = threading.Lock()
        self.memory_hits = 0
        self.memory_misses = 0
        self.memory_evictions = 0

    # -- cache plumbing ---------------------------------------------------------

    def _remember(self, key: str, value) -> None:
        """Insert into the memo table, evicting LRU entries past the bound.

        Caller holds ``self._lock``.
        """
        self._memory.pop(key, None)
        self._memory[key] = value
        if self.memory_max_entries is not None:
            while len(self._memory) > self.memory_max_entries:
                del self._memory[next(iter(self._memory))]
                self.memory_evictions += 1

    def _disk_span(self, name: str):
        """A ``name`` span on the current trace when the engine has a disk
        cache, the no-op span otherwise."""
        return obs.span(name) if self.disk_cache is not None else obs.NULL_SPAN

    def _cached(
        self, keys: Sequence[str], compute: Callable, row: Callable, value: Callable
    ) -> List:
        """The value of every key, in key order, computing only the misses.

        ``compute`` receives the indices of the keys that both cache tiers
        missed and returns their values in that order; it is called once,
        and not at all when every key hits.  A disk row is ``row(result)``,
        and ``value(index, row)`` rebuilds key ``index``'s result from it.
        This is the engine's only path to the memo table and the disk cache:
        one ``get_many`` under one ``cache.get`` span (annotated with the key
        and miss counts), and one ``put_many`` under one ``cache.put`` span.
        """
        with self._disk_span("cache.get") as span:
            with self._lock:
                values = [self._memory.get(key) for key in keys]
                looked_up = [index for index, hit in enumerate(values) if hit is None]
                self.memory_hits += len(keys) - len(looked_up)
            if looked_up and self.disk_cache is not None:
                rows = self.disk_cache.get_many([keys[index] for index in looked_up])
                for index, found in zip(looked_up, rows):
                    if found is not None:
                        values[index] = value(index, found)
            missing = [index for index in looked_up if values[index] is None]
            for tier, outcome, count in (
                ("memory", "hit", len(keys) - len(looked_up)),
                ("disk", "hit", len(looked_up) - len(missing)),
                ("none", "miss", len(missing)),
            ):
                if count:
                    _CACHE_REQUESTS.inc(count, tier=tier, outcome=outcome)
            span.annotate(keys=len(keys), misses=len(missing))
        if missing:
            computed = compute(missing)
            with self._disk_span("cache.put") as span:
                span.annotate(keys=len(missing))
                for index, result in zip(missing, computed):
                    values[index] = result
                if self.disk_cache is not None:
                    self.disk_cache.put_many(
                        [(keys[index], row(values[index])) for index in missing]
                    )
        # Reinserting a memo hit makes it the most recently used.
        used = looked_up if self.memory_max_entries is None else range(len(keys))
        if used:
            with self._lock:
                self.memory_misses += len(missing)
                for index in used:
                    self._remember(keys[index], values[index])
        return values

    def clear_cache(self) -> None:
        """Drop the in-memory memo table and every on-disk entry."""
        with self._lock:
            self._memory.clear()
        if self.disk_cache is not None:
            self.disk_cache.clear()

    def stats(self) -> Dict[str, object]:
        """Cache counters and the combined hit rate, as one JSON-able dict.

        A lookup counts as a ``hit`` when either tier answers (a disk hit
        that populates the memo table is one hit, not two) and as a ``miss``
        only when both tiers miss; ``hit_rate`` is ``hits / (hits + misses)``
        or 0.0 before the first lookup.  The service's ``/stats`` endpoint
        reports this dict verbatim.
        """
        with self._lock:
            counters: Dict[str, object] = {
                "memory_hits": self.memory_hits,
                "memory_misses": self.memory_misses,
                "memory_entries": len(self._memory),
                "memory_evictions": self.memory_evictions,
                "memory_max_entries": self.memory_max_entries,
            }
            hits = self.memory_hits
            misses = self.memory_misses
            if self.disk_cache is not None:
                counters["disk_hits"] = self.disk_cache.hits
                counters["disk_misses"] = self.disk_cache.misses
                counters["disk_evictions"] = self.disk_cache.evictions
                counters["disk_write_failures"] = self.disk_cache.write_failures
                counters["disk_max_entries"] = self.disk_cache.max_entries
                hits += self.disk_cache.hits
            counters["hits"] = hits
            counters["misses"] = misses
            lookups = hits + misses
            counters["hit_rate"] = hits / lookups if lookups else 0.0
        return counters

    # -- network simulation -----------------------------------------------------

    @_instrumented("run_network")
    def run_network(
        self,
        network: Union[str, Network],
        seed: int = 0,
        *,
        sparsity: Optional[Dict[str, LayerSparsity]] = None,
    ) -> NetworkSimulation:
        """Simulate every layer of ``network`` (SCNN + DCNN + oracle + energy).

        The trio's cells of :meth:`run_architectures` on the network's
        recipe handles (:func:`~repro.engine.workloads.network_handles`),
        assembled by :func:`~repro.scnn.simulator.network_simulation`, so
        serial, pooled and cached results are bitwise identical.  The
        returned layers hold the :class:`WorkloadHandle` recipes, whose
        ``masks()`` redraw a layer's operands on demand.  Network-level
        totals and ratios are read from
        :func:`repro.arch.compare.network_comparison` of the result.

        ``network`` accepts any registered workload name (resolved through
        :mod:`repro.workloads.registry`, which also supplies the workload's
        density profile) or a :class:`Network` object (measured Figure 1
        calibration).  ``sparsity`` overrides the per-layer density table
        either way — the hook the density-profile sweeps use.

        Each cell's key names its architecture's configuration and, like
        every key, the model source's digest, so editing a trio
        configuration in source re-keys every cell.  Energy is priced from
        the constant energy table when the simulation is assembled and is
        never cached.
        """
        network, handles = network_handles(network, seed, sparsity=sparsity)
        grid = self.run_architectures(handles, TRIO)
        return network_simulation(network, list(zip(handles, grid.results)))

    # -- workload x architecture grids ------------------------------------------

    @_instrumented("run_architectures")
    def run_architectures(
        self,
        workloads: Sequence[WorkloadHandle],
        architectures: Sequence[object],
    ) -> ArchitectureRun:
        """Evaluate every workload on every registered architecture.

        Each cell is evaluated by :func:`repro.arch.adapters.simulate_layer`,
        which branches on the dataflow's inner operation, so sparse and
        dense architectures mix freely in one grid.  ``architectures``
        accepts registered names or :class:`~repro.arch.spec.ArchitectureSpec`
        objects.  Each cell is content-addressed in the cache on its own,
        by its workload's recipe and its architecture's configuration, so
        two specs that differ only in description or tags share their
        cells.  All of a layer's uncached cells are computed in one task,
        which synthesises the layer once; the tasks shard across the
        process pool, largest layer first.
        """
        workloads = list(workloads)
        specs = [
            spec if isinstance(spec, ArchitectureSpec) else get_architecture(spec)
            for spec in architectures
        ]
        # Render each workload and config once up front, so each cell's key
        # only joins two rendered parts.
        config_parts = [canonical(spec.config) for spec in specs]
        keys = [
            fingerprint("architecture-layer", workload=workload_part, architecture=part)
            for workload_part in map(canonical, workloads)
            for part in config_parts
        ]
        width = len(specs)

        def evaluate(missing: List[int]) -> List[object]:
            rows: Dict[int, List[object]] = {}
            for index in missing:
                rows.setdefault(index // width, []).append(specs[index % width])
            results = parallel_map(
                _layer_task,
                [(workloads[row], row_specs) for row, row_specs in rows.items()],
                self.parallel,
                cost=lambda task: _operand_footprint(task[0].spec),
            )
            return [cell for row in results for cell in row]

        cells = self._cached(keys, evaluate, _CELL_ROW, lambda _, row: ArchLayerResult(*row))
        return ArchitectureRun(
            workloads=workloads,
            architectures=specs,
            results=[cells[i * width : (i + 1) * width] for i in range(len(workloads))],
        )

    # -- design-space exploration -----------------------------------------------

    @_instrumented("sweep")
    def sweep(
        self,
        configs: Sequence[AcceleratorConfig],
        network: Union[str, Network],
        *,
        sparsity: Optional[Dict[str, LayerSparsity]] = None,
    ) -> List[DesignPoint]:
        """Evaluate candidate configurations on ``network``, cached.

        The cached counterpart of :func:`repro.timeloop.dse.sweep`: each
        design point is content-addressed on its own, and the candidates that
        miss the cache are evaluated in one whole-grid pass in this process
        (:func:`repro.timeloop.dse.evaluate_configs`).  The network and
        sparsity parts that every candidate's key shares are rendered once
        per call.  ``network`` accepts any registered workload name (whose
        density profile supplies ``sparsity`` unless overridden), like
        :meth:`run_network`.
        """
        network, sparsity = resolve_network_sparsity(network, sparsity)
        configs = list(configs)
        shared = {"network": canonical(network), "sparsity": canonical(sparsity)}
        keys = [fingerprint("design-point", config=config, **shared) for config in configs]

        def evaluate(missing: List[int]) -> List[DesignPoint]:
            return evaluate_configs(
                [configs[index] for index in missing], network, sparsity=sparsity
            )

        return self._cached(
            keys, evaluate, _POINT_ROW, lambda i, row: DesignPoint(configs[i], *row)
        )
