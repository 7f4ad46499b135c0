"""Shared helpers for the experiment drivers.

Several figures (8, 9, 10 and Section VI-D) consume the same trio results.
All of them route through the shared :class:`~repro.engine.SimulationEngine`,
which memoises each (layer, architecture) cell in memory (so one session
evaluates a trio layer once), shards the per-layer work across a process
pool when parallelism is configured, and persists finished cells to the
content-addressed on-disk cache when ``REPRO_CACHE_DIR`` (or the CLI
``--cache-dir`` flag) names a cache root.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from repro.engine import default_engine
from repro.nn.networks import Network, get_network
from repro.scnn.simulator import NetworkSimulation

EVALUATED_NETWORKS: Tuple[str, ...] = ("alexnet", "googlenet", "vggnet")

# Paper-reported headline numbers, which the Figure 8 and Figure 10
# experiments (fig8_performance, fig10_energy) print beside the measured ones.
PAPER_NETWORK_SPEEDUP = {"AlexNet": 2.37, "GoogLeNet": 2.19, "VGGNet": 3.52}
PAPER_AVERAGE_SPEEDUP = 2.7
PAPER_AVERAGE_ENERGY_REDUCTION = 2.3
PAPER_DCNN_OPT_ENERGY_REDUCTION = 2.0


@lru_cache(maxsize=None)
def cached_network(name: str) -> Network:
    """Catalogue network by name, constructed once per process."""
    return get_network(name)


def cached_simulation(name: str, seed: int = 0) -> NetworkSimulation:
    """Full network simulation (workloads + SCNN + DCNN + oracle + energy).

    Served by the shared simulation engine (:func:`default_engine`): the
    first request computes (in parallel, if the engine is configured for
    it), repeats are assembled from cells in the engine's in-memory memo
    table, and cross-process repeats from the on-disk cache when one is
    configured.

    The *name* is handed to the engine (not a pre-built ``Network``) so the
    workload registry supplies the registered density profile — a synthetic
    workload simulated through fig8/fig10 uses the same densities as the
    ``compare`` and ``network`` paths.
    """
    return default_engine().run_network(name, seed=seed)
