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

Workloads move between processes and cache entries as lazy
:class:`~repro.engine.workloads.WorkloadHandle` recipes, so neither the pool
nor the cache ever ships multi-megabyte activation tensors.  A network
simulation is one :func:`_layer_task` per layer evaluating the trio, and a
workload x architecture grid one per layer with an uncached cell: each task
synthesises its layer's operands at most once, evaluates every architecture
through the registry's adapters and releases them, so the operand tensors
never outlive their layer, in the parent process or in the memo table.
Every entry point reads and writes the cache through one helper,
:meth:`SimulationEngine._cached`.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.arch.adapters import ArchLayerResult, evaluate_layer
from repro.arch.registry import DCNN_CONFIG, DCNN_OPT_CONFIG, SCNN_CONFIG, get_architecture
from repro.arch.spec import AcceleratorConfig, ArchitectureSpec
from repro.engine.cache import ResultCache, canonical, default_cache_dir, fingerprint
from repro.engine.parallel import parallel_map
from repro.engine.workloads import WorkloadHandle
from repro.nn.densities import LayerSparsity, network_sparsity
from repro.nn.inference import LayerWorkload
from repro.nn.layers import ConvLayerSpec
from repro.nn.networks import Network
from repro.scnn.simulator import TRIO, NetworkSimulation, network_simulation
from repro.timeloop.dse import DesignPoint, evaluate_configs
from repro.timeloop.energy import DEFAULT_ENERGY_TABLE

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


def _operand_footprint(spec: ConvLayerSpec) -> int:
    """Operand elements a synthesis of layer ``spec`` draws."""
    return spec.weight_count + spec.input_activation_count


def _layer_task(
    task: Tuple[AnyWorkload, List[ArchitectureSpec]]
) -> Tuple[Optional[WorkloadHandle], List[ArchLayerResult]]:
    """Evaluate one workload on each of its architectures
    (:func:`~repro.arch.adapters.evaluate_layer`): the one layer task of
    both ``run_network`` and ``run_architectures``.

    A handle comes back, tensorless, with the densities its synthesis
    measured; a raw workload, whose tensors the caller holds, does not.
    """
    workload, specs = task
    results = evaluate_layer(workload, specs)
    return (workload if isinstance(workload, WorkloadHandle) else None), results


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


@dataclass
class ArchitectureRun:
    """Result grid of one :meth:`SimulationEngine.run_architectures` call.

    ``results[i][j]`` is the adapter result
    (:class:`repro.arch.adapters.ArchLayerResult`) of ``workloads[i]`` on
    ``architectures[j]``.
    """

    workloads: List[AnyWorkload]
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

    def _cached(
        self, keys: Sequence[str], compute: Callable[[List[int]], Sequence]
    ) -> List:
        """The value of every key, in key order, computing only the misses.

        ``compute`` receives the indices of the keys that both cache tiers
        missed and returns their values in that order; it is called once,
        and not at all when every key hits.  This is the engine's only path
        to the memo table and the disk cache.
        """
        values = [self._lookup(key) for key in keys]
        missing = [index for index, value in enumerate(values) if value is None]
        if missing:
            for index, value in zip(missing, compute(missing)):
                values[index] = value
                self._store(keys[index], value)
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

        The only way a network is simulated: each layer is one
        :func:`_layer_task` that synthesises it and evaluates the trio
        through the registry's adapters, the tasks fan out across the
        process pool largest first, and a repeated request is served from
        the cache; serial, pooled and cached results are bitwise identical.
        The returned layers hold slim :class:`WorkloadHandle` workloads
        whose tensors rematerialise on demand.  Network-level totals and
        ratios are read from
        :func:`repro.arch.compare.network_comparison` of the result.

        ``network`` accepts any registered workload name (resolved through
        :mod:`repro.workloads.registry`, which also supplies the workload's
        density profile) or a :class:`Network` object (measured Figure 1
        calibration).  ``sparsity`` overrides the per-layer density table
        either way — the hook the density-profile sweeps use.

        The key names the trio configurations and the energy table, which
        are constants, so editing one in source re-keys every entry.
        """
        network, sparsity = _resolve_network_and_sparsity(network, sparsity)
        key = fingerprint(
            "network-simulation",
            network=network,
            seed=seed,
            sparsity=sparsity,
            scnn=SCNN_CONFIG,
            dcnn=DCNN_CONFIG,
            dcnn_opt=DCNN_OPT_CONFIG,
            energy=DEFAULT_ENERGY_TABLE,
        )

        def simulate(_missing: List[int]) -> List[NetworkSimulation]:
            trio = [get_architecture(name) for name in TRIO]
            # Recipes only: each task synthesises its own layer.
            handles = [
                WorkloadHandle(network.name, seed, index, spec, sparsity[spec.name])
                for index, spec in enumerate(network.layers)
            ]
            evaluated = parallel_map(
                _layer_task,
                [(handle, trio) for handle in handles],
                self.parallel,
                cost=lambda task: _operand_footprint(task[0].spec),
            )
            return [network_simulation(network, evaluated)]

        return self._cached([key], simulate)[0]

    # -- workload x architecture grids ------------------------------------------

    @_instrumented("run_architectures")
    def run_architectures(
        self,
        workloads: Sequence[AnyWorkload],
        architectures: Sequence[object],
    ) -> ArchitectureRun:
        """Evaluate every workload on every registered architecture.

        Each cell is evaluated through the architecture's simulator adapter
        (the common ``simulate_layer`` surface of :mod:`repro.arch.adapters`),
        so sparse and dense architectures — and any future family — mix
        freely in one grid.  ``architectures`` accepts registered names or
        :class:`~repro.arch.spec.ArchitectureSpec` objects.  Each cell is
        content-addressed in the cache on its own (synthetic workloads by
        their generative recipe, raw workloads by a digest of their
        tensors), but all of a layer's uncached cells are computed in one
        task, which synthesises the layer once; the tasks shard across the
        process pool, largest layer first.
        """
        workloads = list(workloads)
        specs = [
            spec if isinstance(spec, ArchitectureSpec) else get_architecture(spec)
            for spec in architectures
        ]
        # Render each workload and spec once up front: a raw workload's
        # rendering digests its tensors, which must not be repeated per grid
        # cell, and each cell's key then only joins two rendered parts.
        spec_parts = [canonical(spec) for spec in specs]
        keys = [
            fingerprint("architecture-layer", workload=workload_part, architecture=part)
            for workload_part in map(canonical, workloads)
            for part in spec_parts
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
            return [cell for _, row in results for cell in row]

        cells = self._cached(keys, evaluate)
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
        (:func:`repro.timeloop.dse.evaluate_configs`).  The network, sparsity
        and energy parts that every candidate's key shares are rendered once
        per call.  ``network`` accepts any registered workload name (whose
        density profile supplies ``sparsity`` unless overridden), like
        :meth:`run_network`.
        """
        network, sparsity = _resolve_network_and_sparsity(network, sparsity)
        configs = list(configs)
        shared = {
            "network": canonical(network),
            "sparsity": canonical(sparsity),
            "energy": canonical(DEFAULT_ENERGY_TABLE),
        }
        keys = [fingerprint("design-point", config=config, **shared) for config in configs]

        def evaluate(missing: List[int]) -> List[DesignPoint]:
            return evaluate_configs(
                [configs[index] for index in missing], network, sparsity=sparsity
            )

        return self._cached(keys, evaluate)
