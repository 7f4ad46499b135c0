"""The batched simulation engine.

:class:`SimulationEngine` is the single entry point for running layer and
network simulations and design-space sweeps.  It composes three layers:

* the **vectorised models** (:mod:`repro.scnn.cycles` over the integral-image
  tile counts of :mod:`repro.dataflow.tiling`) evaluate one layer without any
  Python-level element iteration;
* **process-pool sharding** (:mod:`repro.engine.parallel`) spreads
  independent layer simulations and candidate configurations across CPU
  cores, with results always assembled in task order so parallel runs are
  bitwise-identical to serial ones;
* a **content-addressed result cache** (:mod:`repro.engine.cache`) memoises
  finished metrics in memory and, when a cache directory is configured, on
  disk keyed by a fingerprint of every input.

Workloads move between processes and cache entries as lazy
:class:`~repro.engine.workloads.WorkloadHandle` recipes, so neither the pool
nor the cache ever ships multi-megabyte activation tensors.  A network
simulation is one build-and-simulate task per layer: each task synthesises
its layer's operands, simulates them and releases them, so the operand
tensors never outlive their layer, in the parent process or in the memo
table.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.engine.cache import ResultCache, default_cache_dir, describe, fingerprint
from repro.engine.parallel import parallel_map
from repro.engine.workloads import WorkloadHandle
from repro.nn.densities import LayerSparsity, network_sparsity
from repro.nn.inference import LayerWorkload, activation_nonzeros
from repro.nn.layers import ConvLayerSpec
from repro.nn.networks import Network
from repro.scnn.config import (
    AcceleratorConfig,
    DCNN_CONFIG,
    DCNN_OPT_CONFIG,
    SCNN_CONFIG,
)
from repro.scnn.cycles import LayerCycleResult, simulate_layer_cycles
from repro.scnn.simulator import LayerSimulation, NetworkSimulation, simulate_layer
from repro.timeloop.dse import (
    DesignPoint,
    evaluate_config,
    evaluate_configs,
    sweep_densities,
)
from repro.timeloop.energy import DEFAULT_ENERGY_TABLE, EnergyTable

AnyWorkload = Union[LayerWorkload, WorkloadHandle]

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


def _simulate_layer_task(
    task: Tuple[
        str,
        int,
        int,
        ConvLayerSpec,
        LayerSparsity,
        Optional[float],
        AcceleratorConfig,
        AcceleratorConfig,
        AcceleratorConfig,
        EnergyTable,
    ]
) -> LayerSimulation:
    """Synthesise one network layer, simulate it, and release its tensors."""
    (
        network_name, seed, index, spec, target, output_density,
        scnn_config, dcnn_config, dcnn_opt_config, table,
    ) = task
    handle = WorkloadHandle.build(network_name, seed, index, spec, target)
    simulation = simulate_layer(
        handle,
        scnn_config=scnn_config,
        dcnn_config=dcnn_config,
        dcnn_opt_config=dcnn_opt_config,
        energy_table=table,
        output_density=output_density,
    )
    # The result keeps the slim handle: neither the memo table nor a pool or
    # disk-cache pickle holds the tensors, which rematerialise on demand.
    handle.release()
    return simulation


def _operand_footprint(task: Tuple) -> int:
    """Operand elements a :func:`_simulate_layer_task` synthesises."""
    spec = task[3]
    return spec.weight_count + spec.input_activation_count


def _layer_cycles_task(
    task: Tuple[AnyWorkload, AcceleratorConfig]
) -> LayerCycleResult:
    workload, config = task
    return simulate_layer_cycles(
        workload.spec, workload.weights, workload.activations, config
    )


def _design_point_task(
    task: Tuple[AcceleratorConfig, Network, Dict[str, LayerSparsity], EnergyTable]
) -> DesignPoint:
    config, network, sparsity, table = task
    return evaluate_config(config, network, sparsity=sparsity, energy_table=table)


def _resolve_network_and_sparsity(
    network: Union[str, "Network"],
    sparsity: Optional[Dict[str, LayerSparsity]],
) -> Tuple["Network", Dict[str, LayerSparsity]]:
    """Shared name/sparsity resolution of ``run_network`` and ``sweep``.

    A workload *name* resolves through the registry (the spec's density
    profile supplies the table unless the caller overrides it); a bare
    :class:`Network` falls back to the measured Figure 1 calibration.
    """
    if isinstance(network, str):
        from repro.workloads.registry import resolve_network, resolve_workload

        if sparsity is None:
            return resolve_workload(network)
        network = resolve_network(network)
    elif sparsity is None:
        sparsity = network_sparsity(network)
    missing = [spec.name for spec in network.layers if spec.name not in sparsity]
    if missing:
        raise KeyError(
            f"sparsity table assigns no density to layer(s) "
            f"{', '.join(map(repr, missing))} of {network.name}"
        )
    return network, sparsity


def _architecture_layer_task(task):
    """Evaluate one (workload, architecture spec) cell via the spec's adapter."""
    # Imported here: repro.arch.adapters pulls the simulators in, and the
    # engine must stay importable from the low layers that the architecture
    # registry itself feeds (see repro.arch.__init__).
    from repro.arch.adapters import get_adapter

    workload, spec = task
    return get_adapter(spec.adapter).simulate_layer(workload, spec.config)


@dataclass
class EngineRun:
    """Result grid of one :meth:`SimulationEngine.run` call.

    ``results[i][j]`` is the cycle-model result of ``workloads[i]`` on
    ``configs[j]``.
    """

    workloads: List[AnyWorkload]
    configs: List[AcceleratorConfig]
    results: List[List[LayerCycleResult]]

    def column(self, config_name: str) -> List[LayerCycleResult]:
        """All per-workload results of the named configuration."""
        for j, config in enumerate(self.configs):
            if config.name == config_name:
                return [row[j] for row in self.results]
        known = ", ".join(repr(config.name) for config in self.configs) or "(none)"
        raise KeyError(
            f"no evaluated configuration named {config_name!r}; "
            f"this run evaluated: {known}"
        )

    def total_cycles(self, config_name: str) -> int:
        """Summed cycles of the named configuration across every workload."""
        return sum(result.cycles for result in self.column(config_name))


@dataclass
class ArchitectureRun:
    """Result grid of one :meth:`SimulationEngine.run_architectures` call.

    ``results[i][j]`` is the adapter result
    (:class:`repro.arch.adapters.ArchLayerResult`) of ``workloads[i]`` on
    ``architectures[j]``.
    """

    workloads: List[AnyWorkload]
    architectures: List[object]  # List[repro.arch.spec.ArchitectureSpec]
    results: List[List[object]]

    def column(self, architecture: str) -> List[object]:
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
    pure functions, and the memo table, counters and disk cache are guarded
    by one lock.  That is the surface the simulation service
    (:mod:`repro.service`) multiplexes concurrent jobs onto — many worker
    threads, one warm engine, one shared cache.  (Concurrent identical
    requests may both compute before one wins the store; both results are
    identical, so the race is benign.)

    Args:
        cache_dir: on-disk cache root.  ``None`` (default) reads the
            ``REPRO_CACHE_DIR`` environment variable; ``False`` disables the
            disk cache outright; a path enables it there.
        parallel: default process-pool size for all ``run*`` methods
            (``None``/``0``/``1`` = serial, ``-1`` = one worker per CPU).
            Each call can override it.
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
        # Python dicts preserve insertion order; _lookup/_store reinsert on
        # use, which makes iteration order the LRU order.
        self._memory: Dict[str, object] = {}
        self._lock = threading.Lock()
        self.memory_hits = 0
        self.memory_misses = 0
        self.memory_evictions = 0

    # -- cache plumbing ---------------------------------------------------------

    def _lookup(self, key: str):
        # The engine lock guards only the memo table and counters; disk I/O
        # (multi-megabyte pickle reads, LRU eviction scans) happens outside
        # it so one worker's cache traffic never stalls the others.
        # ResultCache is itself safe for concurrent readers and writers.
        with self._lock:
            value = self._memory.get(key)
            if value is not None:
                self.memory_hits += 1
                if self.memory_max_entries is not None:
                    # Reinsert so the hit entry becomes most recently used.
                    del self._memory[key]
                    self._memory[key] = value
        if value is not None:
            _CACHE_REQUESTS.inc(tier="memory", outcome="hit")
            return value
        if self.disk_cache is not None:
            with obs.span("cache.get") as span:
                value = self.disk_cache.get(key)
                span.annotate(outcome="hit" if value is not None else "miss")
            if value is not None:
                with self._lock:
                    self._remember(key, value)
                _CACHE_REQUESTS.inc(tier="disk", outcome="hit")
                return value
        with self._lock:
            self.memory_misses += 1
        _CACHE_REQUESTS.inc(tier="none", outcome="miss")
        return None

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

    def _store(self, key: str, value) -> None:
        with self._lock:
            self._remember(key, value)
        if self.disk_cache is not None:
            with obs.span("cache.put"):
                self.disk_cache.put(key, value)

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

    def _workers(self, parallel: Optional[int]) -> Optional[int]:
        return self.parallel if parallel is None else parallel

    # -- network simulation -----------------------------------------------------

    @_instrumented("run_network")
    def run_network(
        self,
        network: Union[str, Network],
        seed: int = 0,
        *,
        sparsity: Optional[Dict[str, LayerSparsity]] = None,
        parallel: Optional[int] = None,
        scnn_config: AcceleratorConfig = SCNN_CONFIG,
        dcnn_config: AcceleratorConfig = DCNN_CONFIG,
        dcnn_opt_config: AcceleratorConfig = DCNN_OPT_CONFIG,
        energy_table: EnergyTable = DEFAULT_ENERGY_TABLE,
    ) -> NetworkSimulation:
        """Simulate every layer of ``network`` (SCNN + DCNN + oracle + energy).

        Equivalent to :func:`repro.scnn.simulator.simulate_network` — the
        metrics are bitwise-identical — but cached and shardable: each layer
        is one task that synthesises and simulates it, the tasks fan out
        across the process pool largest first, and a repeated request is
        served from the cache.  The returned layers hold slim
        :class:`WorkloadHandle` workloads whose tensors rematerialise on
        demand.

        ``network`` accepts any registered workload name (resolved through
        :mod:`repro.workloads.registry`, which also supplies the workload's
        density profile) or a :class:`Network` object (measured Figure 1
        calibration).  ``sparsity`` overrides the per-layer density table
        either way — the hook the density-profile sweeps use.
        """
        network, sparsity = _resolve_network_and_sparsity(network, sparsity)
        key = fingerprint(
            "network-simulation",
            network=network,
            seed=seed,
            sparsity=sparsity,
            scnn=scnn_config,
            dcnn=dcnn_config,
            dcnn_opt=dcnn_opt_config,
            energy=energy_table,
        )
        cached = self._lookup(key)
        if cached is not None:
            return cached

        specs = network.layers
        tasks = []
        for index, spec in enumerate(specs):
            # Layer i's output is layer i+1's input, whose non-zero count the
            # synthesis fixes exactly, so no task waits for another.
            output_density = None
            if index + 1 < len(specs):
                following = specs[index + 1]
                output_density = (
                    activation_nonzeros(
                        following, sparsity[following.name].activation_density
                    )
                    / following.input_activation_count
                )
            tasks.append(
                (
                    network.name,
                    seed,
                    index,
                    spec,
                    sparsity[spec.name],
                    output_density,
                    scnn_config,
                    dcnn_config,
                    dcnn_opt_config,
                    energy_table,
                )
            )
        layers = parallel_map(
            _simulate_layer_task,
            tasks,
            self._workers(parallel),
            cost=_operand_footprint,
        )
        simulation = NetworkSimulation(network=network, layers=layers)
        self._store(key, simulation)
        return simulation

    # -- batched layer evaluation -----------------------------------------------

    @_instrumented("run")
    def run(
        self,
        workloads: Sequence[AnyWorkload],
        configs: Optional[Sequence[AcceleratorConfig]] = None,
        *,
        parallel: Optional[int] = None,
    ) -> EngineRun:
        """Evaluate every workload on every configuration with the cycle model.

        The (workload, config) grid is flattened into independent tasks and
        sharded across the pool; each cell is individually content-addressed
        in the disk cache (synthetic workloads by their generative recipe,
        raw workloads by a digest of their tensors).
        """
        workloads = list(workloads)
        configs = list(configs) if configs is not None else [SCNN_CONFIG]
        cells: List[List[Optional[LayerCycleResult]]] = [
            [None] * len(configs) for _ in workloads
        ]
        # Describe each workload and config once up front — a raw workload's
        # description digests its tensors, which must not be repeated per
        # grid cell.  describe() output is canonical JSON data, so feeding it
        # back through fingerprint() is idempotent.
        workload_parts = [describe(workload) for workload in workloads]
        config_parts = [describe(config) for config in configs]
        pending: List[Tuple[int, int, str]] = []
        for i, workload in enumerate(workloads):
            for j, config in enumerate(configs):
                key = fingerprint(
                    "layer-cycles", workload=workload_parts[i], config=config_parts[j]
                )
                cached = self._lookup(key)
                if cached is not None:
                    cells[i][j] = cached
                else:
                    pending.append((i, j, key))
        results = parallel_map(
            _layer_cycles_task,
            [(workloads[i], configs[j]) for i, j, _ in pending],
            self._workers(parallel),
        )
        for (i, j, key), result in zip(pending, results):
            cells[i][j] = result
            self._store(key, result)
        return EngineRun(workloads=workloads, configs=configs, results=cells)

    @_instrumented("run_architectures")
    def run_architectures(
        self,
        workloads: Sequence[AnyWorkload],
        architectures: Sequence[object],
        *,
        parallel: Optional[int] = None,
        batched: bool = True,
    ) -> ArchitectureRun:
        """Evaluate every workload on every registered architecture.

        Like :meth:`run`, but each cell is evaluated through the
        architecture's simulator adapter (the common ``simulate_layer``
        surface of :mod:`repro.arch.adapters`) instead of the raw SCNN cycle
        model, so sparse and dense architectures — and any future family —
        mix freely in one grid.  ``architectures`` accepts registered names
        or :class:`~repro.arch.spec.ArchitectureSpec` objects; cells are
        individually content-addressed in the cache and shard across the
        process pool.

        Dense (``dot-product-dense``) columns are shape-only, so their
        pending cells are evaluated in one batched grid pass
        (:func:`repro.grid.dense_cycle_grid`) instead of the pool — bitwise
        the same results, without ever touching the operand tensors.
        ``batched=False`` forces every cell through its adapter.
        """
        from repro.arch.registry import get_architecture
        from repro.arch.spec import ArchitectureSpec

        workloads = list(workloads)
        specs = [
            spec if isinstance(spec, ArchitectureSpec) else get_architecture(spec)
            for spec in architectures
        ]
        cells: List[List[object]] = [[None] * len(specs) for _ in workloads]
        workload_parts = [describe(workload) for workload in workloads]
        spec_parts = [describe(spec) for spec in specs]
        pending: List[Tuple[int, int, str]] = []
        for i, workload in enumerate(workloads):
            for j, spec in enumerate(specs):
                key = fingerprint(
                    "architecture-layer",
                    workload=workload_parts[i],
                    architecture=spec_parts[j],
                )
                cached = self._lookup(key)
                if cached is not None:
                    cells[i][j] = cached
                else:
                    pending.append((i, j, key))
        if batched:
            dense_pending = [
                cell for cell in pending if specs[cell[1]].adapter == "dot-product-dense"
            ]
            if dense_pending:
                self._run_dense_columns(workloads, specs, dense_pending, cells)
                pending = [
                    cell
                    for cell in pending
                    if specs[cell[1]].adapter != "dot-product-dense"
                ]
        results = parallel_map(
            _architecture_layer_task,
            [(workloads[i], specs[j]) for i, j, _ in pending],
            self._workers(parallel),
        )
        for (i, j, key), result in zip(pending, results):
            cells[i][j] = result
            self._store(key, result)
        return ArchitectureRun(workloads=workloads, architectures=specs, results=cells)

    def _run_dense_columns(
        self,
        workloads: List[AnyWorkload],
        specs: List[object],
        pending: List[Tuple[int, int, str]],
        cells: List[List[object]],
    ) -> None:
        """Fill pending dense-adapter cells from one grid pass per column."""
        # Imported lazily for the same reason as _architecture_layer_task.
        from repro.arch.adapters import ArchLayerResult
        from repro.grid import dense_cycle_grid

        by_column: Dict[int, List[Tuple[int, str]]] = {}
        for i, j, key in pending:
            by_column.setdefault(j, []).append((i, key))
        for j, items in by_column.items():
            config = specs[j].config
            layer_specs = [workloads[i].spec for i, _ in items]
            grid = dense_cycle_grid(layer_specs, config)
            for row, (i, key) in enumerate(items):
                result = ArchLayerResult(
                    architecture=config.name,
                    layer=layer_specs[row].name,
                    cycles=int(grid.cycles[row]),
                    operations=int(grid.products[row]),
                    multiplier_utilization=float(grid.multiplier_utilization[row]),
                    idle_fraction=float(grid.idle_fraction[row]),
                    weight_vector_fetches=None,
                )
                cells[i][j] = result
                self._store(key, result)

    # -- design-space exploration -----------------------------------------------

    @_instrumented("sweep")
    def sweep(
        self,
        configs: Sequence[AcceleratorConfig],
        network: Union[str, Network],
        *,
        sparsity: Optional[Dict[str, LayerSparsity]] = None,
        energy_table: EnergyTable = DEFAULT_ENERGY_TABLE,
        parallel: Optional[int] = None,
        batched: bool = True,
    ) -> List[DesignPoint]:
        """Evaluate candidate configurations on ``network``, in parallel.

        Drop-in replacement for :func:`repro.timeloop.dse.sweep`: the same
        analytical model evaluates each candidate, candidates that miss the
        cache are evaluated in one batched grid pass (itself cached under a
        grid-level key via :meth:`evaluate_grid`), and finished design points
        stay individually content-addressed.  ``batched=False`` falls back to
        sharding per-config evaluations across the pool; every path produces
        bitwise-identical points.  ``network`` accepts any registered
        workload name (whose density profile supplies ``sparsity`` unless
        overridden), like :meth:`run_network`.
        """
        network, sparsity = _resolve_network_and_sparsity(network, sparsity)
        configs = list(configs)
        points: List[Optional[DesignPoint]] = [None] * len(configs)
        pending: List[Tuple[int, str]] = []
        for index, config in enumerate(configs):
            key = fingerprint(
                "design-point",
                config=config,
                network=network,
                sparsity=sparsity,
                energy=energy_table,
            )
            cached = self._lookup(key)
            if cached is not None:
                points[index] = cached
            else:
                pending.append((index, key))
        if batched:
            pending_configs = [configs[index] for index, _ in pending]
            weight, activation, output = sweep_densities(network, sparsity)
            grid = self.evaluate_grid(
                list(network.layers),
                pending_configs,
                weight_density=weight,
                activation_density=activation,
                output_density=output,
                energy_table=energy_table,
                model="scnn",
            )
            results = evaluate_configs(
                pending_configs,
                network,
                sparsity=sparsity,
                energy_table=energy_table,
                grid=grid,
            )
        else:
            results = parallel_map(
                _design_point_task,
                [
                    (configs[index], network, sparsity, energy_table)
                    for index, _ in pending
                ],
                self._workers(parallel),
            )
        for (index, key), point in zip(pending, results):
            points[index] = point
            self._store(key, point)
        return points

    # -- whole-grid analytical evaluation -----------------------------------------

    @_instrumented("evaluate_grid")
    def evaluate_grid(
        self,
        specs: Sequence[object],
        configs: Sequence[AcceleratorConfig],
        *,
        weight_density,
        activation_density,
        output_density=None,
        energy_table: EnergyTable = DEFAULT_ENERGY_TABLE,
        model: str = "auto",
    ):
        """Cached front end to :func:`repro.grid.evaluate_grid`.

        The whole configs x layers x densities result
        (:class:`repro.grid.GridResult`) is content-addressed under one
        grid-level key, so a repeated sweep over the same axes is one cache
        hit instead of configs x layers x points model evaluations.
        """
        from repro.grid import evaluate_grid as grid_evaluate

        specs = list(specs)
        configs = list(configs)
        key = fingerprint(
            "analytical-grid",
            specs=specs,
            configs=configs,
            weight_density=np.asarray(weight_density, dtype=np.float64),
            activation_density=np.asarray(activation_density, dtype=np.float64),
            output_density=(
                None
                if output_density is None
                else np.asarray(output_density, dtype=np.float64)
            ),
            energy=energy_table,
            model=model,
        )
        cached = self._lookup(key)
        if cached is not None:
            return cached
        result = grid_evaluate(
            specs,
            configs,
            weight_density=weight_density,
            activation_density=activation_density,
            output_density=output_density,
            energy_table=energy_table,
            model=model,
        )
        self._store(key, result)
        return result
