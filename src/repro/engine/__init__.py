"""Batched simulation engine: caching + process-pool sharding + vectorised models.

Public surface:

* :class:`SimulationEngine` — ``run_architectures`` for workload x
  architecture grids cached cell by cell, each keyed by its architecture's
  configuration (what the ``compare`` sweeps and Figures 8-10,
  the Section VI-C study and the service's ``layer`` scenario consume),
  ``run_network`` for full per-network simulations (the trio's cells of
  ``run_architectures``, assembled), and ``sweep`` for cached
  design-space exploration (one entry per design point; the misses are
  evaluated in one grid pass).  The pool size is the engine's
  ``parallel``, fixed when it is built.
* :func:`default_engine` / :func:`configure_default_engine` — the shared
  engine instance the experiment layer and CLI route through.  Unlike a
  :class:`SimulationEngine` built directly (serial unless told otherwise),
  it shards across one fork worker per usable CPU by default.
* :class:`ResultCache` and :class:`WorkloadHandle` — the content-addressed
  on-disk store and the workload recipe the engine is built on.

See ``docs/architecture.md`` for the design (vectorisation strategy,
sharding rules, cache invalidation).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

from repro.engine.cache import ResultCache, default_cache_dir, fingerprint
from repro.engine.core import ArchitectureRun, SimulationEngine
from repro.engine.parallel import parallel_map, pool_forks, resolve_workers
from repro.nn.inference import WorkloadHandle

_default_engine: Optional[SimulationEngine] = None


def _default_parallel() -> Optional[int]:
    """Pool size of the shared engine: ``REPRO_PARALLEL`` if set, else one
    worker per usable CPU where the pool forks (Linux), else serial."""
    raw = os.environ.get("REPRO_PARALLEL")
    if raw:
        return int(raw)
    return -1 if pool_forks() else None


def default_engine() -> SimulationEngine:
    """The process-wide engine instance (created on first use).

    Honours ``REPRO_CACHE_DIR`` (disk cache root) and ``REPRO_PARALLEL``
    (pool size; unset means one worker per usable CPU where the pool forks)
    unless :func:`configure_default_engine` replaced it.
    """
    global _default_engine
    if _default_engine is None:
        _default_engine = SimulationEngine(parallel=_default_parallel())
    return _default_engine


def configure_default_engine(
    cache_dir: Union[None, bool, str, Path] = None,
    parallel: Optional[int] = None,
) -> SimulationEngine:
    """Replace the shared engine (CLI flags, notebooks, tests).

    ``parallel=None`` falls back to ``REPRO_PARALLEL`` and then to the
    per-CPU default of :func:`default_engine`, mirroring how
    ``cache_dir=None`` falls back to ``REPRO_CACHE_DIR`` — reconfiguring one
    knob never silently discards the other's default.
    """
    global _default_engine
    if parallel is None:
        parallel = _default_parallel()
    _default_engine = SimulationEngine(cache_dir=cache_dir, parallel=parallel)
    return _default_engine


__all__ = [
    "ArchitectureRun",
    "ResultCache",
    "SimulationEngine",
    "WorkloadHandle",
    "configure_default_engine",
    "default_cache_dir",
    "default_engine",
    "fingerprint",
    "parallel_map",
    "resolve_workers",
]
