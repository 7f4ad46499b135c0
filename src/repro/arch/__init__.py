"""The architecture subsystem: registry, adapters, comparison sweeps.

Every accelerator the repository can simulate is declared here as an
:class:`ArchitectureSpec` — hardware parameterization plus a simulator
adapter binding plus paper provenance — and registered in the
:class:`ArchitectureRegistry`.  The canonical Table II / Table IV
configurations are *defined* in :mod:`repro.arch.registry`, their only home;
the sparsity ablations and granularity variants ride along as further
entries.  New variants are a data change: register a spec and it is
immediately comparable everywhere.

Public surface:

* :func:`default_registry` / :func:`get_architecture` /
  :func:`available_architectures` / :func:`resolve_config` — the catalogue.
* :class:`ArchitectureSpec` / :class:`AcceleratorConfig` — the declarative
  descriptions (see :mod:`repro.arch.spec`).
* :func:`get_adapter` / :class:`SimulatorAdapter` — the common
  ``simulate_layer`` evaluation interface (see :mod:`repro.arch.adapters`).
* :func:`compare_network` / :func:`compare_networks` /
  :class:`NetworkComparison` — cross-architecture comparison sweeps through
  the cached, parallel simulation engine, and :func:`network_comparison`,
  the same view of a simulation already in hand (see
  :mod:`repro.arch.compare`).

The adapter and comparison modules import the simulators and the engine, so
they load lazily (PEP 562) — the simulators and the analytical models take
their configurations from this package at import time, and importing it
never drags the engine in.
"""

from __future__ import annotations

from repro.arch.registry import (
    ArchitectureRegistry,
    DCNN_CONFIG,
    DCNN_OPT_CONFIG,
    SCNN_CONFIG,
    SCNN_SPARSE_A_CONFIG,
    SCNN_SPARSE_W_CONFIG,
    available_architectures,
    default_registry,
    get_architecture,
    resolve_config,
)
from repro.arch.spec import AcceleratorConfig, ArchitectureSpec

# Names served lazily from the heavier modules (they import the simulators
# and the engine, which in turn import this package).
_LAZY = {
    "ArchLayerResult": "repro.arch.adapters",
    "SimulatorAdapter": "repro.arch.adapters",
    "available_adapters": "repro.arch.adapters",
    "effective_densities": "repro.arch.adapters",
    "get_adapter": "repro.arch.adapters",
    "ArchLayerMetrics": "repro.arch.compare",
    "NetworkComparison": "repro.arch.compare",
    "compare_network": "repro.arch.compare",
    "compare_networks": "repro.arch.compare",
    "network_comparison": "repro.arch.compare",
}

__all__ = [
    "AcceleratorConfig",
    "ArchitectureRegistry",
    "ArchitectureSpec",
    "DCNN_CONFIG",
    "DCNN_OPT_CONFIG",
    "SCNN_CONFIG",
    "SCNN_SPARSE_A_CONFIG",
    "SCNN_SPARSE_W_CONFIG",
    "available_architectures",
    "default_registry",
    "get_architecture",
    "resolve_config",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    """Resolve adapter / comparison names on first use (lazy import)."""
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
